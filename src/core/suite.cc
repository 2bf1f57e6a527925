#include "core/suite.hh"

#include "base/logging.hh"
#include "models/arga.hh"
#include "models/deepgcn.hh"
#include "models/graphwriter.hh"
#include "models/kgnn.hh"
#include "models/pinsage.hh"
#include "models/stgcn.hh"
#include "models/treelstm.hh"

namespace gnnmark {

const std::vector<TableOneRow> &
BenchmarkSuite::tableOne()
{
    static const std::vector<TableOneRow> rows = {
        {"PSAGE-MVL", "PinSAGE", "DGL", "Recommendation",
         "MovieLens (synthetic)", "Heterogeneous"},
        {"PSAGE-NWP", "PinSAGE", "DGL", "Recommendation",
         "Nowplaying (synthetic)", "Heterogeneous"},
        {"STGCN", "STGCN", "PyTorch", "Traffic forecasting",
         "METR-LA (synthetic)", "Dynamic (spatio-temporal)"},
        {"DGCN", "DeepGCN", "PyG", "Molecular property prediction",
         "ogbg-mol (synthetic)", "Homogeneous (batched)"},
        {"GW", "GraphWriter", "PyTorch", "Text generation",
         "AGENDA (synthetic)", "Knowledge graph"},
        {"KGNNL", "k-GNN", "PyG", "Protein classification",
         "PROTEINS (synthetic)", "Homogeneous (batched)"},
        {"KGNNH", "k-GNN", "PyG", "Protein classification",
         "PROTEINS (synthetic)", "Homogeneous (batched)"},
        {"ARGA", "ARGA", "PyG", "Node clustering", "Cora (synthetic)",
         "Homogeneous"},
        {"TLSTM", "Tree-LSTM", "DGL", "Sentiment classification",
         "SST (synthetic)", "Tree (batched)"},
    };
    return rows;
}

const std::vector<std::string> &
BenchmarkSuite::workloadNames()
{
    static const std::vector<std::string> names = [] {
        std::vector<std::string> out;
        for (const TableOneRow &row : tableOne())
            out.push_back(row.workload);
        return out;
    }();
    return names;
}

std::unique_ptr<Workload>
BenchmarkSuite::create(const std::string &name)
{
    if (name == "PSAGE-MVL")
        return std::make_unique<PinSage>(PinSageDataset::MVL);
    if (name == "PSAGE-NWP")
        return std::make_unique<PinSage>(PinSageDataset::NWP);
    if (name == "STGCN")
        return std::make_unique<Stgcn>();
    if (name == "DGCN")
        return std::make_unique<DeepGcn>();
    if (name == "GW")
        return std::make_unique<GraphWriter>();
    if (name == "KGNNL")
        return std::make_unique<KGnn>(2);
    if (name == "KGNNH")
        return std::make_unique<KGnn>(3);
    if (name == "ARGA")
        return std::make_unique<Arga>();
    if (name == "TLSTM")
        return std::make_unique<TreeLstm>();
    GNN_FATAL("unknown workload '%s'", name.c_str());
}

std::vector<std::unique_ptr<Workload>>
BenchmarkSuite::createAll()
{
    std::vector<std::unique_ptr<Workload>> out;
    for (const std::string &name : workloadNames())
        out.push_back(create(name));
    return out;
}

} // namespace gnnmark
