/**
 * @file
 * Spatio-Temporal GCN workload (STGCN): traffic forecasting over a
 * sensor network, after Yu et al. Two ST-Conv blocks (gated temporal
 * convolutions sandwiching a spectral graph convolution) followed by
 * a temporal output layer; trained with MSE on next-step speeds.
 * Represents the suite's dynamic-graph workload; execution is
 * dominated by 2-D convolutions (paper Fig. 2).
 */

#ifndef GNNMARK_MODELS_STGCN_HH
#define GNNMARK_MODELS_STGCN_HH

#include <memory>
#include <optional>

#include "graph/generators.hh"
#include "models/workload.hh"
#include "nn/layers.hh"
#include "nn/optim.hh"

namespace gnnmark {

/** One gated ST-Conv block. */
class StConvBlock : public nn::Module
{
  public:
    StConvBlock(int64_t c_in, int64_t c_mid, int64_t c_out, Rng &rng);

    /** x is [B, c_in, T, N]; returns [B, c_out, T-4, N]. */
    Variable forward(const Variable &x, const SparseMatrix &adj,
                     const SparseMatrix &adj_t) const;

  private:
    Variable temporalGlu(const Variable &x, const Variable &wa,
                         const Variable &wb) const;

    Variable convA1_, convB1_; ///< [c_mid, c_in, 3, 1] temporal pair
    Variable theta_;           ///< [c_mid, c_mid, 1, 1] channel mix
    Variable convA2_, convB2_; ///< [c_out, c_mid, 3, 1] temporal pair
};

/** The STGCN workload: spatio-temporal traffic forecasting. */
class Stgcn : public Workload
{
  public:
    Stgcn() = default;

    std::string name() const override { return "STGCN"; }

    void setup(const WorkloadConfig &config) override;
    float trainIteration() override;
    int64_t iterationsPerEpoch() const override;
    double parameterBytes() const override;
    bool supportsCheckpoint() const override { return true; }
    void visitState(StateVisitor &visitor) override;

  private:
    WorkloadConfig cfg_;
    std::optional<Rng> rng_;

    gen::TrafficData data_;
    SparseMatrix adj_, adjT_;
    int64_t window_ = 12;
    int64_t batch_ = 16;

    std::unique_ptr<StConvBlock> block1_;
    std::unique_ptr<StConvBlock> block2_;
    Variable outConv_;  ///< [1, c, T_rem, 1] collapse time
    std::unique_ptr<nn::Adam> optim_;
};

} // namespace gnnmark

#endif // GNNMARK_MODELS_STGCN_HH
