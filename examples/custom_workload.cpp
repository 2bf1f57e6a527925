/**
 * @file
 * Extending the suite: define your own Workload (a classic two-layer
 * GCN doing node classification on a citation graph) and put it
 * through the same characterization pipeline as the built-in
 * workloads — the way GNNMark is meant to grow (the paper's Sec. VII
 * plans more models).
 */

#include <iostream>
#include <optional>

#include "core/characterization.hh"
#include "core/reports.hh"
#include "graph/generators.hh"
#include "models/gnn_layers.hh"
#include "nn/loss.hh"
#include "nn/optim.hh"

using namespace gnnmark;

namespace {

/** Two-layer GCN for citation-graph node classification. */
class NodeClassifierGcn : public Workload
{
  public:
    std::string name() const override { return "MY-GCN"; }

    void
    setup(const WorkloadConfig &config) override
    {
        rng_.emplace(config.seed);
        data_ = gen::citation(*rng_,
                              static_cast<int64_t>(1600 * config.scale),
                              static_cast<int64_t>(1200 * config.scale),
                              /*classes=*/6);
        adj_ = data_.graph.gcnNormAdjacency();

        const int64_t fdim = data_.features.size(1);
        layer1_ = std::make_unique<GcnLayer>(fdim, 32, *rng_);
        layer2_ = std::make_unique<GcnLayer>(32, 6, *rng_);
        std::vector<Variable> params = layer1_->parameters();
        for (const auto &p : layer2_->parameters())
            params.push_back(p);
        optim_ = std::make_unique<nn::Adam>(std::move(params), 1e-2f);
    }

    float
    trainIteration() override
    {
        uploadInput(data_.features, "features");
        Variable h =
            ag::relu(layer1_->forward(adj_, adj_,
                                      Variable(data_.features)));
        Variable logits = layer2_->forward(adj_, adj_, h);
        Variable loss = nn::crossEntropy(logits, data_.labels);
        optim_->zeroGrad();
        loss.backward();
        optim_->step();
        lastLogits_ = logits.value();
        return loss.value()(0);
    }

    int64_t iterationsPerEpoch() const override { return 1; }
    double parameterBytes() const override
    {
        return optim_->parameterBytes();
    }
    bool supportsMultiGpu() const override { return false; }

    double
    trainAccuracy() const
    {
        return nn::accuracy(lastLogits_, data_.labels);
    }

  private:
    std::optional<Rng> rng_;
    gen::CitationData data_;
    SparseMatrix adj_;
    std::unique_ptr<GcnLayer> layer1_;
    std::unique_ptr<GcnLayer> layer2_;
    std::unique_ptr<nn::Adam> optim_;
    Tensor lastLogits_;
};

} // namespace

int
main()
{
    NodeClassifierGcn workload;

    RunOptions options;
    options.iterations = 20;
    options.scale = 0.5;
    CharacterizationRunner runner(options);

    std::cout << "Characterizing a custom workload ("
              << workload.name() << ") exactly like the built-in "
              << "suite members...\n\n";
    WorkloadProfile profile = runner.run(workload);

    std::cout << "Loss: " << profile.losses.front() << " -> "
              << profile.losses.back() << "  (train accuracy "
              << workload.trainAccuracy() << ")\n\n";

    auto breakdown = profile.profiler.opTimeBreakdown();
    std::cout << "Where the GPU time went:\n";
    for (OpClass c : allOpClasses()) {
        double share = breakdown[static_cast<size_t>(c)];
        if (share > 0.01) {
            std::cout << "  " << opClassName(c) << ": " << share * 100
                      << "%\n";
        }
    }
    std::cout << "\n";
    reports::printKernelTable(profile, std::cout, 8);
    return 0;
}
