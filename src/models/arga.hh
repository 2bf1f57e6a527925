/**
 * @file
 * ARGA workload: Adversarially Regularized Graph Autoencoder (Pan et
 * al.) for unsupervised node clustering on citation graphs. A GCN
 * encoder embeds the whole graph; an inner-product decoder
 * reconstructs the adjacency; a small MLP discriminator pushes the
 * embedding towards a Gaussian prior. ARGA trains on the full graph
 * every step — which is why the paper excludes it from the multi-GPU
 * scaling study and why its transfers are highly sparse (one-hot
 * bag-of-words features).
 */

#ifndef GNNMARK_MODELS_ARGA_HH
#define GNNMARK_MODELS_ARGA_HH

#include <memory>
#include <optional>

#include "graph/generators.hh"
#include "models/gnn_layers.hh"
#include "models/workload.hh"
#include "nn/layers.hh"
#include "nn/optim.hh"

namespace gnnmark {

/** The ARGA workload: adversarial graph autoencoder training. */
class Arga : public Workload
{
  public:
    Arga() = default;

    std::string name() const override { return "ARGA"; }

    void setup(const WorkloadConfig &config) override;
    float trainIteration() override;
    int64_t iterationsPerEpoch() const override;
    double parameterBytes() const override;
    bool supportsCheckpoint() const override { return true; }
    void visitState(StateVisitor &visitor) override;

    /** Whole-graph training cannot be data-parallelised (Fig. 9). */
    bool supportsMultiGpu() const override { return false; }

  private:
    WorkloadConfig cfg_;
    std::optional<Rng> rng_;

    gen::CitationData data_;
    SparseMatrix adj_, adjT_;
    Tensor adjDense_; ///< reconstruction targets [N, N]
    int64_t hidden_ = 32;
    int64_t zDim_ = 16;

    std::unique_ptr<GcnLayer> enc1_;
    std::unique_ptr<GcnLayer> enc2_;
    Variable preluSlope_; ///< learnable PReLU slope (paper Sec. V-D)
    std::unique_ptr<nn::Linear> disc1_;
    std::unique_ptr<nn::Linear> disc2_;
    std::unique_ptr<nn::Adam> optimEnc_;
    std::unique_ptr<nn::Adam> optimDisc_;
};

} // namespace gnnmark

#endif // GNNMARK_MODELS_ARGA_HH
