/**
 * @file
 * Streamed minibatch training over a generated edge stream: each
 * chunk block is compacted into a ChunkGraph, neighbour-sampled, and
 * fed through a SAGE-style aggregate + linear regression step — all
 * without ever materializing the full graph. The harness exists to
 * prove the acceptance criterion of the streaming generator: training
 * consumes a graph far larger than memory while peak resident bytes
 * stay inside the chunk budget.
 */

#ifndef GNNMARK_GEN_STREAM_TRAIN_HH
#define GNNMARK_GEN_STREAM_TRAIN_HH

#include <cstdint>
#include <vector>

#include "gen/edge_stream.hh"
#include "gen/report.hh"

namespace gnnmark {
namespace gen {

class DegreeAccumulator;

/** @{ The streamed trainer's fixed shape. */
inline constexpr int kStreamFanout = 8;      ///< neighbours per seed
inline constexpr int kStreamBatchSize = 256; ///< seeds per minibatch
inline constexpr int kStreamFeatDim = 16;    ///< hash-derived features
inline constexpr double kStreamLr = 0.05;    ///< SGD learning rate
/** @} */

struct StreamTrainOptions
{
    uint64_t seed = 1234;  ///< sampling + label seed
    /**
     * Tumbling-window width, in chunks, for the edge-throughput and
     * loss series (0 disables windowing). Chunk ordinal stands in for
     * time: the stream is consumed in chunk order regardless of how
     * many threads generate it, so the series is deterministic.
     */
    int64_t windowChunks = 0;
};

/**
 * Drain `stream`, training one minibatch per chunk. The regression
 * target is exactly linear in the aggregated features (true weights
 * derived from opts.seed), so the loss genuinely falls as the model
 * converges — a cheap end-to-end correctness signal.
 *
 * @param degrees  optional accumulator fed every block as it passes
 */
StreamTrainResult streamTrain(EdgeStream &stream,
                              const StreamTrainOptions &opts,
                              DegreeAccumulator *degrees = nullptr);

} // namespace gen
} // namespace gnnmark

#endif // GNNMARK_GEN_STREAM_TRAIN_HH
