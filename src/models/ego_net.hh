/**
 * @file
 * Batched ego-net inference entry: the per-user recommendation query
 * the serving front-end prices. One query asks for the embedding of a
 * seed item; a batch of queries shares one PinSAGE-style forward pass
 * (random-walk sampled two-hop ego networks, block compaction sorts,
 * feature upload, two SAGE layers). There is no backward pass and no
 * optimiser — this is the inference path the serving simulator runs
 * on the sim device to learn what a batch of size K actually costs.
 */

#ifndef GNNMARK_MODELS_EGO_NET_HH
#define GNNMARK_MODELS_EGO_NET_HH

#include <memory>
#include <optional>
#include <vector>

#include "graph/generators.hh"
#include "models/pinsage.hh"

namespace gnnmark {

/** Batched PinSAGE-flavoured ego-net inference model (see file doc). */
class EgoNetBatchModel
{
  public:
    /**
     * Build the item catalogue, sampler and layers. `scale` follows
     * the suite's dataset scale factor; the catalogue mirrors the
     * PSAGE-MVL configuration (narrow features, moderate sparsity).
     */
    EgoNetBatchModel(double scale, uint64_t seed);
    ~EgoNetBatchModel();

    /** Items in the catalogue (valid query ids are [0, numItems)). */
    int64_t numItems() const { return data_.items; }

    /**
     * One batched forward pass for the given seed items: sample the
     * two-hop ego nets, compact blocks (the inference path keeps the
     * to_block sorts), upload features, and run proj -> SAGE -> SAGE.
     * Returns the mean output embedding value (a cheap checksum that
     * keeps the computation observable). Deterministic in call order
     * for a fixed seed.
     */
    float inferBatch(const std::vector<int32_t> &items);

  private:
    std::optional<Rng> rng_;

    gen::RecsysData data_;
    std::unique_ptr<PinSageEncoder> encoder_;
};

} // namespace gnnmark

#endif // GNNMARK_MODELS_EGO_NET_HH
