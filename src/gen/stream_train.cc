#include "gen/stream_train.hh"

#include <algorithm>
#include <cmath>
#include <memory>
#include <vector>

#include "base/rng.hh"
#include "gen/degree_stats.hh"
#include "graph/batch.hh"
#include "graph/samplers.hh"

namespace gnnmark {
namespace gen {

namespace {

/**
 * Deterministic node feature: a hash of (global id, dimension)
 * mapped to [-1, 1]. Any worker can reconstruct any node's features
 * from its id alone, so no feature matrix is ever materialized.
 */
float
hashFeature(int64_t global_id, int k)
{
    uint64_t x = static_cast<uint64_t>(global_id) * 0x9e3779b97f4a7c15ULL +
                 static_cast<uint64_t>(k) * 0xbf58476d1ce4e5b9ULL;
    x ^= x >> 30;
    x *= 0xbf58476d1ce4e5b9ULL;
    x ^= x >> 27;
    x *= 0x94d049bb133111ebULL;
    x ^= x >> 31;
    const double u = static_cast<double>(x >> 11) * 0x1.0p-53;
    return static_cast<float>(2.0 * u - 1.0);
}

} // namespace

StreamTrainResult
streamTrain(EdgeStream &stream, const StreamTrainOptions &opts,
            DegreeAccumulator *degrees)
{
    StreamTrainResult result;

    std::unique_ptr<obs::WindowedSeries> edgeWin, lossWin;
    if (opts.windowChunks > 0) {
        edgeWin = std::make_unique<obs::WindowedSeries>(
            static_cast<double>(opts.windowChunks));
        lossWin = std::make_unique<obs::WindowedSeries>(
            static_cast<double>(opts.windowChunks));
    }

    // Ground-truth weights: the label of a minibatch row is exactly
    // linear in its aggregated features, so the linear model can fit.
    Rng true_rng = Rng(opts.seed).split(~uint64_t{0});
    std::vector<double> true_w(static_cast<size_t>(kStreamFeatDim));
    for (double &w : true_w)
        w = true_rng.uniform(-1.0f, 1.0f);

    std::vector<double> model(static_cast<size_t>(kStreamFeatDim), 0.0);
    std::vector<float> src_feat;  // [srcNodes, featDim]
    std::vector<double> agg;      // [batch, featDim]

    EdgeBlock block;
    while (stream.next(block)) {
        if (degrees)
            degrees->accumulate(block);
        ++result.chunks;
        result.edgesConsumed += static_cast<int64_t>(block.edges.size());
        if (edgeWin) {
            edgeWin->observe(
                static_cast<double>(result.chunks - 1),
                static_cast<double>(block.edges.size()));
        }
        if (block.edges.empty())
            continue;

        const ChunkGraph cg =
            ChunkGraph::fromEdges(block.edges, /*symmetric=*/true);
        const int64_t num_nodes = cg.numNodes();
        if (num_nodes == 0)
            continue;

        Rng rng = Rng(opts.seed).split(
            static_cast<uint64_t>(block.chunkIndex));
        const int64_t batch =
            std::min<int64_t>(kStreamBatchSize, num_nodes);
        std::vector<int32_t> seeds(static_cast<size_t>(batch));
        for (int32_t &s : seeds)
            s = static_cast<int32_t>(
                rng.randint(static_cast<uint64_t>(num_nodes)));

        NeighborSampler sampler(cg.graph, kStreamFanout);
        const SampledBlock sampled = sampler.sample(seeds, rng);

        // Features for the sampled source frontier only.
        const size_t f = static_cast<size_t>(kStreamFeatDim);
        src_feat.assign(sampled.srcNodes.size() * f, 0.0f);
        for (size_t i = 0; i < sampled.srcNodes.size(); ++i) {
            const int64_t global =
                cg.globalIds[static_cast<size_t>(sampled.srcNodes[i])];
            for (size_t k = 0; k < f; ++k)
                src_feat[i * f + k] =
                    hashFeature(global, static_cast<int>(k));
        }

        // Weighted-mean aggregation per destination.
        agg.assign(static_cast<size_t>(batch) * f, 0.0);
        for (size_t d = 0; d < sampled.dstNodes.size(); ++d) {
            const int32_t lo = sampled.offsets[d];
            const int32_t hi = sampled.offsets[d + 1];
            double wsum = 0.0;
            for (int32_t e = lo; e < hi; ++e) {
                const size_t src =
                    static_cast<size_t>(sampled.neighbors[e]);
                const double w = sampled.weights[e];
                wsum += w;
                for (size_t k = 0; k < f; ++k)
                    agg[d * f + k] += w * src_feat[src * f + k];
            }
            if (wsum > 0.0) {
                for (size_t k = 0; k < f; ++k)
                    agg[d * f + k] /= wsum;
            }
        }

        // One SGD step of linear regression on the aggregated rows.
        double loss = 0.0;
        std::vector<double> grad(f, 0.0);
        for (int64_t d = 0; d < batch; ++d) {
            double y = 0.0, p = 0.0;
            for (size_t k = 0; k < f; ++k) {
                const double h = agg[static_cast<size_t>(d) * f + k];
                y += true_w[k] * h;
                p += model[k] * h;
            }
            const double err = p - y;
            loss += err * err;
            for (size_t k = 0; k < f; ++k)
                grad[k] += 2.0 * err *
                           agg[static_cast<size_t>(d) * f + k];
        }
        loss /= static_cast<double>(batch);
        for (size_t k = 0; k < f; ++k)
            model[k] -= kStreamLr * grad[k] / static_cast<double>(batch);

        if (result.batches == 0)
            result.firstLoss = loss;
        result.lastLoss = loss;
        ++result.batches;
        if (lossWin)
            lossWin->observe(static_cast<double>(result.chunks - 1),
                             loss);

        int64_t resident =
            block.bytes() + cg.bytes() +
            static_cast<int64_t>(src_feat.size() * sizeof(float)) +
            static_cast<int64_t>(agg.size() * sizeof(double));
        if (degrees)
            resident += degrees->residentBytes();
        result.peakResidentBytes =
            std::max(result.peakResidentBytes, resident);
    }
    if (edgeWin) {
        const double horizon = static_cast<double>(result.chunks);
        result.edgeWindows = edgeWin->series(horizon);
        result.lossWindows = lossWin->series(horizon);
    }
    return result;
}

} // namespace gen
} // namespace gnnmark
