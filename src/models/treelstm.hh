/**
 * @file
 * Tree-LSTM workload (TLSTM): child-sum Tree-LSTM (Tai et al.) for
 * sentiment classification over batched parse trees, following the
 * DGL batching implementation. Execution is a long sequence of small
 * level-wise kernels (gathers, segment sums, tiny GEMMs), giving the
 * suite's lowest arithmetic intensity — the workload that does not
 * benefit from multi-GPU training in the paper.
 */

#ifndef GNNMARK_MODELS_TREELSTM_HH
#define GNNMARK_MODELS_TREELSTM_HH

#include <memory>
#include <optional>

#include "graph/generators.hh"
#include "graph/tree.hh"
#include "models/workload.hh"
#include "nn/layers.hh"
#include "nn/loss.hh"
#include "nn/optim.hh"

namespace gnnmark {

/** The TLSTM workload: batched child-sum Tree-LSTM training. */
class TreeLstm : public Workload
{
  public:
    TreeLstm() = default;

    std::string name() const override { return "TLSTM"; }

    void setup(const WorkloadConfig &config) override;
    float trainIteration() override;
    int64_t iterationsPerEpoch() const override;
    double parameterBytes() const override;
    bool supportsCheckpoint() const override { return true; }
    void visitState(StateVisitor &visitor) override;

  private:
    WorkloadConfig cfg_;
    std::optional<Rng> rng_;

    std::vector<Tree> dataset_;
    int64_t vocab_ = 600;
    int64_t hidden_ = 90;
    int numClasses_ = 5;
    int64_t batch_ = 48;

    std::unique_ptr<nn::Embedding> emb_;
    // Child-sum cell projections (unfused, as in the DGL model).
    std::unique_ptr<nn::Linear> wIou_; ///< leaf input -> 3H
    std::unique_ptr<nn::Linear> uIou_; ///< child-sum h -> 3H
    std::unique_ptr<nn::Linear> uF_;   ///< child h -> H (forget gates)
    std::unique_ptr<nn::Linear> cls_;
    std::unique_ptr<nn::Adam> optim_;

    int64_t cursor_ = 0;
};

} // namespace gnnmark

#endif // GNNMARK_MODELS_TREELSTM_HH
