/**
 * @file
 * PinSAGE workload (PSAGE): random-walk-sampled GraphSAGE for item
 * recommendation on a bipartite user-item graph, after the DGL
 * implementation of Ying et al. Two dataset configurations mirror the
 * paper: MVL (MovieLens-like, narrow features) and NWP
 * (Nowplaying-like, 10x wider features).
 */

#ifndef GNNMARK_MODELS_PINSAGE_HH
#define GNNMARK_MODELS_PINSAGE_HH

#include <memory>
#include <optional>

#include "graph/generators.hh"
#include "graph/samplers.hh"
#include "models/gnn_layers.hh"
#include "models/workload.hh"
#include "nn/optim.hh"

namespace gnnmark {

/** Position of each query id within a sorted unique id list. */
std::vector<int32_t> positionsIn(const std::vector<int32_t> &sorted_ids,
                                 const std::vector<int32_t> &queries);

/**
 * The PinSAGE encoder the training workload and the serving model
 * (models/ego_net.hh) share: a random-walk sampler over the item
 * catalogue and the proj -> SAGE -> SAGE stack. A forward pass is
 * gather() then encode(); the training workload transforms the
 * features in between.
 *
 * Each result holds every buffer of its half of the pass until the
 * caller drops it, in the order the pass made them: when a step
 * unmaps its buffers decides which device addresses the next step
 * maps, so the kernel stream depends on it.
 */
class PinSageEncoder
{
  public:
    /** One batch's sampled blocks and input features (see gather()). */
    struct Inputs
    {
        SampledBlock outer, inner;
        Tensor raw, shifted, squared, norms, inv; ///< intermediates
        /** inner.srcNodes' features, standardised and l2-normalised. */
        Tensor features;
    };

    /** The layer outputs of one encode(), held like Inputs. */
    struct Embeddings
    {
        Variable x, h0, h1;
        Variable out; ///< one row per seed, in seed order
    };

    /** Layers drawn from `rng`: proj, then the two SAGE layers. */
    PinSageEncoder(std::vector<std::vector<int32_t>> item_to_user,
                   std::vector<std::vector<int32_t>> user_to_item,
                   int64_t feature_dim, int64_t hidden, Rng &rng);

    /**
     * Sample the two-hop blocks around `seeds` (sorted unique item
     * ids) and run DGL's to_block sorts on them, then slice the input
     * items' rows of `item_features`, upload them and standardise and
     * l2-normalise them on the device.
     */
    Inputs gather(const std::vector<int32_t> &seeds,
                  const Tensor &item_features, Rng &rng) const;

    /** proj -> SAGE -> SAGE over `in`'s blocks, from input `x`. */
    Embeddings encode(const Inputs &in, const Variable &x) const;

    /** proj's, then each SAGE layer's parameters. */
    std::vector<Variable> parameters() const;

  private:
    RandomWalkSampler sampler_;
    nn::Linear proj_;
    SageLayer sage1_;
    SageLayer sage2_;
};

/** Dataset flavour for the PinSAGE workload. */
enum class PinSageDataset
{
    MVL, ///< MovieLens-like: 64-wide item features, 22% zeros
    NWP, ///< Nowplaying-like: 640-wide item features, 11% zeros
};

/** The PSAGE workload (see file comment); MVL or NWP flavour. */
class PinSage : public Workload
{
  public:
    explicit PinSage(PinSageDataset dataset);

    std::string name() const override;

    void setup(const WorkloadConfig &config) override;
    float trainIteration() override;
    int64_t iterationsPerEpoch() const override;
    double parameterBytes() const override;
    bool supportsCheckpoint() const override { return true; }
    void visitState(StateVisitor &visitor) override;

    /** The DGL batch sampler replicates under DDP (paper Fig. 9). */
    bool samplerDdpCompatible() const override { return false; }

  private:
    /** Draw a co-clicked positive partner for an item. */
    int32_t samplePositive(int32_t item);

    PinSageDataset dataset_;
    WorkloadConfig cfg_;
    std::optional<Rng> rng_;

    gen::RecsysData data_;
    std::vector<std::vector<int32_t>> itemToUser_;
    std::vector<std::vector<int32_t>> userToItem_;

    int64_t hidden_ = 56;
    int64_t batch_ = 192;
    std::unique_ptr<PinSageEncoder> encoder_;
    std::unique_ptr<nn::Adam> optim_;

    int64_t cursor_ = 0;
};

} // namespace gnnmark

#endif // GNNMARK_MODELS_PINSAGE_HH
