#include "models/kgnn.hh"

#include <algorithm>
#include <map>

#include "base/logging.hh"

namespace gnnmark {

SetGraph
buildTwoSets(const Graph &g, const std::vector<int32_t> &node_graph_id)
{
    SetGraph sets;
    // Undirected unique edges u < v, in (u, v) order — grouped by the
    // underlying small graph because batched node ids are contiguous.
    std::map<std::pair<int32_t, int32_t>, int32_t> set_id;
    for (size_t e = 0; e < g.edgeSrc().size(); ++e) {
        int32_t u = g.edgeSrc()[e];
        int32_t v = g.edgeDst()[e];
        if (u >= v)
            continue;
        set_id[{u, v}] = static_cast<int32_t>(sets.memberA.size());
        sets.memberA.push_back(u);
        sets.memberB.push_back(v);
        sets.setGraphId.push_back(node_graph_id[u]);
    }

    // Two 2-sets are adjacent when they share a node.
    std::vector<std::vector<int32_t>> node_sets(g.numNodes());
    for (int64_t s = 0; s < sets.numSets(); ++s) {
        node_sets[sets.memberA[s]].push_back(static_cast<int32_t>(s));
        node_sets[sets.memberB[s]].push_back(static_cast<int32_t>(s));
    }
    std::vector<std::pair<int32_t, int32_t>> edges;
    for (const auto &incident : node_sets) {
        for (size_t i = 0; i < incident.size(); ++i) {
            for (size_t j = i + 1; j < incident.size(); ++j)
                edges.emplace_back(incident[i], incident[j]);
        }
    }
    sets.graph =
        Graph(sets.numSets(), std::move(edges), /*symmetric=*/true);
    return sets;
}

SetGraph
buildThreeSets(const SetGraph &two_sets, int max_per_node)
{
    SetGraph sets;
    // Connected triples arise from pairs of 2-sets sharing a node;
    // capped per node to bound the combinatorial growth.
    const Graph &g2 = two_sets.graph;
    std::vector<std::pair<int32_t, int32_t>> members;
    for (int64_t s = 0; s < g2.numNodes(); ++s) {
        auto [begin, end] = g2.neighbors(s);
        int taken = 0;
        for (const int32_t *p = begin; p != end && taken < max_per_node;
             ++p) {
            if (*p <= s)
                continue;
            members.emplace_back(static_cast<int32_t>(s), *p);
            ++taken;
        }
    }
    for (auto [a, b] : members) {
        sets.memberA.push_back(a);
        sets.memberB.push_back(b);
        sets.setGraphId.push_back(two_sets.setGraphId[a]);
    }

    // 3-sets are adjacent when they share a 2-set.
    std::vector<std::vector<int32_t>> incident(g2.numNodes());
    for (int64_t s = 0; s < sets.numSets(); ++s) {
        incident[sets.memberA[s]].push_back(static_cast<int32_t>(s));
        incident[sets.memberB[s]].push_back(static_cast<int32_t>(s));
    }
    std::vector<std::pair<int32_t, int32_t>> edges;
    for (const auto &list : incident) {
        for (size_t i = 0; i + 1 < list.size(); ++i)
            edges.emplace_back(list[i], list[i + 1]);
    }
    sets.graph =
        Graph(sets.numSets(), std::move(edges), /*symmetric=*/true);
    return sets;
}

namespace {

/** Pool lower-level features into set features (gather + add). */
Variable
poolIntoSets(const Variable &lower, const SetGraph &sets)
{
    Variable a = ag::indexSelectRows(lower, sets.memberA);
    Variable b = ag::indexSelectRows(lower, sets.memberB);
    return ag::add(a, b);
}

/** CSR-style offsets from a sorted graph-id array. */
std::vector<int32_t>
offsetsFromGraphIds(const std::vector<int32_t> &ids, int64_t num_graphs)
{
    std::vector<int32_t> offsets(num_graphs + 1, 0);
    for (int32_t id : ids)
        ++offsets[id + 1];
    for (int64_t g = 0; g < num_graphs; ++g)
        offsets[g + 1] += offsets[g];
    return offsets;
}

} // namespace

KGnn::KGnn(int k) : k_(k)
{
    GNN_ASSERT(k == 2 || k == 3, "KGnn supports k = 2 or 3, got %d", k);
}

std::string
KGnn::name() const
{
    return k_ == 2 ? "KGNNL" : "KGNNH";
}

void
KGnn::setup(const WorkloadConfig &config)
{
    cfg_ = config;
    rng_.emplace(config.seed ^ 0x4b474e4eu); // "KGNN"
    const double s = checkedScale(config.scale);

    const int count = std::max(48, static_cast<int>(384 * s));
    dataset_ = gen::proteins(*rng_, count);

    node1_ = std::make_unique<GcnLayer>(3, hidden_, *rng_);
    node2_ = std::make_unique<GcnLayer>(hidden_, hidden_, *rng_);
    two1_ = std::make_unique<GcnLayer>(hidden_, hidden_, *rng_);
    two2_ = std::make_unique<GcnLayer>(hidden_, hidden_, *rng_);
    if (k_ == 3) {
        three1_ = std::make_unique<GcnLayer>(hidden_, hidden_, *rng_);
        three2_ = std::make_unique<GcnLayer>(hidden_, hidden_, *rng_);
    }
    readout_ = std::make_unique<nn::Linear>(k_ * hidden_, 2, *rng_);

    std::vector<Variable> params;
    for (nn::Module *m : std::initializer_list<nn::Module *>{
             node1_.get(), node2_.get(), two1_.get(), two2_.get()}) {
        for (const auto &p : m->parameters())
            params.push_back(p);
    }
    if (k_ == 3) {
        for (nn::Module *m : std::initializer_list<nn::Module *>{
                 three1_.get(), three2_.get()}) {
            for (const auto &p : m->parameters())
                params.push_back(p);
        }
    }
    for (const auto &p : readout_->parameters())
        params.push_back(p);
    optim_ = std::make_unique<nn::Adam>(std::move(params), 1e-3f);
    cursor_ = 0;
}

float
KGnn::trainIteration()
{
    const int64_t local_batch =
        std::max<int64_t>(1, batch_ / cfg_.worldSize);
    const int64_t n_graphs = static_cast<int64_t>(dataset_.size());
    const int64_t start = cursor_;
    cursor_ += batch_;

    std::vector<SmallGraph> chosen;
    chosen.reserve(local_batch);
    for (int64_t i = 0; i < local_batch; ++i)
        chosen.push_back(dataset_[(start + i) % n_graphs]);
    GraphBatch batch = GraphBatch::build(chosen);
    uploadInput(batch.features, "protein_features");

    std::vector<int32_t> node_graph_id(batch.graph.numNodes());
    for (int64_t g = 0; g + 1 < static_cast<int64_t>(
                                    batch.nodeOffsets.size()); ++g) {
        for (int32_t v = batch.nodeOffsets[g];
             v < batch.nodeOffsets[g + 1]; ++v) {
            node_graph_id[v] = static_cast<int32_t>(g);
        }
    }

    // 1-GNN on the node graph.
    SparseMatrix adj1 = batch.graph.gcnNormAdjacency();
    Variable h1 = ag::relu(
        node1_->forward(adj1, adj1, Variable(batch.features)));
    h1 = ag::relu(node2_->forward(adj1, adj1, h1));

    // 2-GNN on connected pairs.
    SetGraph two = buildTwoSets(batch.graph, node_graph_id);
    SparseMatrix adj2 = two.graph.gcnNormAdjacency();
    Variable h2 = poolIntoSets(h1, two);
    h2 = ag::relu(two1_->forward(adj2, adj2, h2));
    h2 = ag::relu(two2_->forward(adj2, adj2, h2));

    const int64_t num_graphs_in_batch = batch.numGraphs();
    Variable pooled = ag::concatCols(
        ag::segmentMeanRows(h1, batch.nodeOffsets),
        ag::segmentMeanRows(
            h2, offsetsFromGraphIds(two.setGraphId,
                                    num_graphs_in_batch)));

    if (k_ == 3) {
        // 3-GNN on connected triples.
        SetGraph three = buildThreeSets(two, /*max_per_node=*/6);
        SparseMatrix adj3 = three.graph.gcnNormAdjacency();
        Variable h3 = poolIntoSets(h2, three);
        h3 = ag::relu(three1_->forward(adj3, adj3, h3));
        h3 = ag::relu(three2_->forward(adj3, adj3, h3));
        pooled = ag::concatCols(
            pooled,
            ag::segmentMeanRows(
                h3, offsetsFromGraphIds(three.setGraphId,
                                        num_graphs_in_batch)));
    }

    Variable logits = readout_->forward(pooled);
    Variable loss = nn::crossEntropy(logits, batch.labels);

    if (!cfg_.inferenceOnly) {
        optim_->zeroGrad();
        loss.backward();
        optim_->step();
    }
    return loss.value()(0);
}

int64_t
KGnn::iterationsPerEpoch() const
{
    return std::max<int64_t>(
        1, static_cast<int64_t>(dataset_.size()) / batch_);
}

double
KGnn::parameterBytes() const
{
    return optim_->parameterBytes();
}

void
KGnn::visitState(StateVisitor &visitor)
{
    visitor.rng(*rng_);
    visitor.scalar(cursor_);
    visitor.optimizer(*optim_);
}

} // namespace gnnmark
