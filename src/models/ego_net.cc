#include "models/ego_net.hh"

#include <algorithm>

#include "base/logging.hh"
#include "models/workload.hh"
#include "ops/reduce.hh"
#include "ops/sort.hh"
#include "ops/var_ops.hh"

namespace gnnmark {

EgoNetBatchModel::EgoNetBatchModel(double scale, uint64_t seed)
{
    rng_.emplace(seed ^ 0x45474f4eu); // "EGON"
    scale = checkedScale(scale);

    // PSAGE-MVL-shaped catalogue: narrow item features, moderate
    // sparsity — the recommendation corpus the queries hit.
    const int64_t users = std::max<int64_t>(64, 900 * scale);
    const int64_t items = std::max<int64_t>(64, 700 * scale);
    const int64_t clicks = std::max<int64_t>(512, 14000 * scale);
    const int64_t fdim = 64;

    data_ = gen::bipartiteRecsys(*rng_, users, items, clicks, fdim,
                                 /*feature_zero_fraction=*/0.22);
    encoder_ = std::make_unique<PinSageEncoder>(
        data_.graph.relationAdjList(data_.relItemUser),
        data_.graph.relationAdjList(data_.relUserItem), fdim,
        /*hidden=*/56, *rng_);
}

EgoNetBatchModel::~EgoNetBatchModel() = default;

float
EgoNetBatchModel::inferBatch(const std::vector<int32_t> &items)
{
    GNN_ASSERT(!items.empty(), "inferBatch needs at least one item");
    for (int32_t item : items) {
        GNN_ASSERT(item >= 0 && item < data_.items,
                   "item %d outside the catalogue [0, %lld)", item,
                   static_cast<long long>(data_.items));
    }

    // Compact the query id space, exactly like the training path's
    // to_block() (sorted unique + relabel).
    std::vector<int32_t> seeds = ops::sortedUnique(items);

    // No clamp, rescale or dropout: this is the serving path, not
    // training.
    const PinSageEncoder::Inputs in =
        encoder_->gather(seeds, data_.itemFeatures, *rng_);
    const PinSageEncoder::Embeddings h =
        encoder_->encode(in, Variable(in.features));

    // Pull the requested embeddings (duplicates resolve to the same
    // compacted row) and reduce to a scalar checksum.
    Variable out = ag::indexSelectRows(h.out, positionsIn(seeds, items));
    return ops::reduceMeanAll(out.value());
}

} // namespace gnnmark
