/**
 * @file
 * Batch cost model: what a batch of K queries costs on a replica.
 *
 * Costs are not invented — they are *priced* by running the real
 * ego-net inference path (EgoNetBatchModel::inferBatch) on a
 * simulated GpuDevice at a handful of anchor batch sizes (powers of
 * two up to the max batch) and measuring the device's wallTimeSec
 * delta for each. The serving simulator then interpolates piecewise-
 * linearly between anchors, so batching economics (fixed per-batch
 * overhead amortised across queries) come from the sim's own kernel
 * and transfer models rather than a hand-tuned constant.
 *
 * The simulator consumes only the BatchCostTable, so unit tests can
 * substitute a synthetic table without building a model or a device.
 */

#ifndef GNNMARK_SERVE_COST_MODEL_HH
#define GNNMARK_SERVE_COST_MODEL_HH

#include <cstdint>
#include <vector>

namespace gnnmark {

class EgoNetBatchModel;
class GpuDevice;

namespace serve {

/** Piecewise-linear batch-size -> service-time table. */
struct BatchCostTable
{
    /** Ascending anchor batch sizes (first is 1). */
    std::vector<int> sizes;
    /** Measured cost per anchor, seconds (non-decreasing). */
    std::vector<double> costs;

    /**
     * Interpolated cost of a batch of `batch` queries. Linear
     * between anchors; beyond the last anchor, extrapolates with the
     * final segment's slope (batching keeps amortising).
     */
    double costSec(int batch) const;

    bool valid() const { return sizes.size() >= 1 && sizes.size() == costs.size(); }
};

/**
 * Price anchor batch sizes {1, 2, 4, ..., maxBatch} (maxBatch at most
 * kMaxBatchSize) by running
 * `model` under `device` and measuring wall-time deltas. Each anchor
 * runs once to warm the device's per-kernel sampling caches and once
 * for the measurement. Costs are clamped non-decreasing in batch
 * size so interpolation stays monotone.
 */
BatchCostTable priceBatchCosts(EgoNetBatchModel &model,
                               GpuDevice &device, int maxBatch,
                               uint64_t seed);

} // namespace serve
} // namespace gnnmark

#endif // GNNMARK_SERVE_COST_MODEL_HH
