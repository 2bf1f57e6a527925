/**
 * @file
 * DeepGCN workload (DGCN): a deep residual GCN (Li et al.) for graph
 * property prediction on batches of molecule-like graphs. Each layer
 * does explicit gather/scatter message passing, an MLP update, batch
 * norm and a residual add — the residual plumbing is why DGCN's time
 * is dominated by element-wise operations in the paper (~31%).
 */

#ifndef GNNMARK_MODELS_DEEPGCN_HH
#define GNNMARK_MODELS_DEEPGCN_HH

#include <memory>
#include <optional>

#include "graph/batch.hh"
#include "graph/generators.hh"
#include "models/workload.hh"
#include "nn/layers.hh"
#include "nn/loss.hh"
#include "nn/optim.hh"

namespace gnnmark {

/** One residual message-passing layer of DeepGCN. */
class DeepGcnLayer : public nn::Module
{
  public:
    DeepGcnLayer(int64_t hidden, Rng &rng);

    /**
     * @param h       [N, hidden] node states
     * @param src,dst edge endpoints
     * @param inv_deg [N] reciprocal in-degrees (mean aggregation)
     */
    Variable forward(const Variable &h, const std::vector<int32_t> &src,
                     const std::vector<int32_t> &dst,
                     const Tensor &inv_deg) const;

  private:
    nn::Linear mlp1_;
    nn::BatchNorm1d bn_;
};

/** The DGCN workload: deep residual GCN training. */
class DeepGcn : public Workload
{
  public:
    DeepGcn() = default;

    std::string name() const override { return "DGCN"; }

    void setup(const WorkloadConfig &config) override;
    float trainIteration() override;
    int64_t iterationsPerEpoch() const override;
    double parameterBytes() const override;
    bool supportsCheckpoint() const override { return true; }
    void visitState(StateVisitor &visitor) override;

  private:
    WorkloadConfig cfg_;
    std::optional<Rng> rng_;

    std::vector<SmallGraph> dataset_;
    int64_t featDim_ = 9;
    int64_t hidden_ = 72;
    int numLayers_ = 14;
    int64_t batch_ = 96;

    std::unique_ptr<nn::Linear> encoder_;
    std::vector<std::unique_ptr<DeepGcnLayer>> layers_;
    std::unique_ptr<nn::Linear> readout_;
    std::unique_ptr<nn::Adam> optim_;

    int64_t cursor_ = 0;
};

} // namespace gnnmark

#endif // GNNMARK_MODELS_DEEPGCN_HH
