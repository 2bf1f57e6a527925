#include "serve/cost_model.hh"

#include <algorithm>

#include "base/logging.hh"
#include "base/rng.hh"
#include "models/ego_net.hh"
#include "ops/exec_context.hh"
#include "serve/traffic.hh"
#include "sim/gpu_device.hh"

namespace gnnmark {
namespace serve {

double
BatchCostTable::costSec(int batch) const
{
    GNN_ASSERT(valid(), "batch cost table is empty or ragged");
    GNN_ASSERT(batch >= 1, "batch size must be >= 1, got %d", batch);
    if (batch <= sizes.front())
        return costs.front();
    for (size_t i = 1; i < sizes.size(); ++i) {
        if (batch <= sizes[i]) {
            const double t =
                static_cast<double>(batch - sizes[i - 1]) /
                static_cast<double>(sizes[i] - sizes[i - 1]);
            return costs[i - 1] + t * (costs[i] - costs[i - 1]);
        }
    }
    // Beyond the last anchor: continue the final segment's slope.
    if (sizes.size() == 1)
        return costs.back();
    const size_t n = sizes.size();
    const double slope = (costs[n - 1] - costs[n - 2]) /
                         static_cast<double>(sizes[n - 1] - sizes[n - 2]);
    return costs.back() +
           slope * static_cast<double>(batch - sizes.back());
}

BatchCostTable
priceBatchCosts(EgoNetBatchModel &model, GpuDevice &device,
                int maxBatch, uint64_t seed)
{
    GNN_ASSERT(maxBatch >= 1 && maxBatch <= kMaxBatchSize,
               "maxBatch must be in [1, %d], got %d", kMaxBatchSize,
               maxBatch);
    Rng rng(seed ^ 0x434f5354u); // "COST"

    BatchCostTable table;
    for (int size = 1; size < maxBatch; size *= 2)
        table.sizes.push_back(size);
    table.sizes.push_back(maxBatch);

    auto drawBatch = [&](int size) {
        std::vector<int32_t> items;
        items.reserve(size);
        for (int i = 0; i < size; ++i) {
            items.push_back(static_cast<int32_t>(
                rng.randint(static_cast<uint64_t>(model.numItems()))));
        }
        return items;
    };

    ContextGuard guard(&device);
    for (int size : table.sizes) {
        // Warm pass: populates the device's per-kernel sampling
        // state so the measured pass reflects steady-state costs.
        model.inferBatch(drawBatch(size));
        device.resetTimers();
        model.inferBatch(drawBatch(size));
        double cost = device.wallTimeSec();
        device.resetTimers();
        // Monotone clamp: sampling noise at small batches must not
        // produce a table where bigger batches look cheaper.
        if (!table.costs.empty())
            cost = std::max(cost, table.costs.back());
        table.costs.push_back(cost);
    }
    return table;
}

} // namespace serve
} // namespace gnnmark
