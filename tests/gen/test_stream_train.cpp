/**
 * @file
 * Streamed minibatch training over a generated edge stream: the chunk
 * compaction is correct, the loss genuinely falls, and the training
 * loop's resident memory stays bounded by chunk-sized state — the
 * reduced-scale version of the acceptance criterion for feeding
 * graphs much larger than memory through training.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <utility>
#include <vector>

#include "gen/config.hh"
#include "gen/degree_stats.hh"
#include "gen/edge_stream.hh"
#include "gen/stream_train.hh"
#include "graph/batch.hh"

using namespace gnnmark;
using gen::Family;
using gen::GeneratorConfig;

TEST(ChunkGraph, CompactsGlobalIdsDensely)
{
    const std::vector<std::pair<int64_t, int64_t>> edges = {
        {1000000007, 42}, {42, 7}, {1000000007, 7}};
    const ChunkGraph cg =
        ChunkGraph::fromEdges(edges, /*symmetric=*/false);
    EXPECT_EQ(cg.numNodes(), 3);
    ASSERT_EQ(cg.globalIds.size(), 3u);
    // First-seen order: 1000000007, 42, 7.
    EXPECT_EQ(cg.globalIds[0], 1000000007);
    EXPECT_EQ(cg.globalIds[1], 42);
    EXPECT_EQ(cg.globalIds[2], 7);
    EXPECT_EQ(cg.graph.numEdges(), 3);
    // Compact edge (0 -> 1) is global (1000000007 -> 42).
    const auto [begin, end] = cg.graph.neighbors(0);
    EXPECT_EQ(end - begin, 2); // targets 42 and 7
}

TEST(ChunkGraph, SymmetricDoublesEdges)
{
    const std::vector<std::pair<int64_t, int64_t>> edges = {{5, 9},
                                                            {9, 13}};
    const ChunkGraph cg = ChunkGraph::fromEdges(edges);
    EXPECT_EQ(cg.numNodes(), 3);
    EXPECT_EQ(cg.graph.numEdges(), 4);
    EXPECT_GT(cg.bytes(), 0);
}

TEST(ChunkGraph, BytesScaleWithChunkNotGlobalIdSpace)
{
    // A chunk touching vertices near 10^15 costs the same as one near
    // zero: footprint follows the chunk, never the global id range.
    std::vector<std::pair<int64_t, int64_t>> lo, hi;
    const int64_t kFar = int64_t{1} << 50;
    for (int64_t i = 0; i < 100; ++i) {
        lo.emplace_back(i, i + 1);
        hi.emplace_back(kFar + i, kFar + i + 1);
    }
    EXPECT_EQ(ChunkGraph::fromEdges(lo).bytes(),
              ChunkGraph::fromEdges(hi).bytes());
}

namespace {

GeneratorConfig
trainConfig()
{
    GeneratorConfig cfg;
    cfg.family = Family::Hyperbolic;
    cfg.n = 60000;
    cfg.m = 2000000;
    cfg.chunks = 64;
    cfg.lookahead = 2;
    cfg.seed = 7;
    return cfg;
}

} // namespace

TEST(StreamTrain, LossDecreases)
{
    GeneratorConfig cfg = trainConfig();
    gen::ChunkedEdgeStream stream(cfg);
    gen::StreamTrainOptions opts;
    const gen::StreamTrainResult result = gen::streamTrain(stream, opts);
    EXPECT_EQ(result.chunks, stream.chunkCount());
    EXPECT_EQ(result.edgesConsumed, stream.edgesEmitted());
    EXPECT_GT(result.batches, 10);
    EXPECT_GT(result.firstLoss, 0.0);
    // The target is exactly linear in the aggregated features, so the
    // linear model must make real progress over a few dozen batches.
    EXPECT_LT(result.lastLoss, result.firstLoss * 0.5);
}

TEST(StreamTrain, Deterministic)
{
    const GeneratorConfig cfg = trainConfig();
    gen::StreamTrainOptions opts;
    gen::ChunkedEdgeStream s1(cfg), s2(cfg);
    const gen::StreamTrainResult a = gen::streamTrain(s1, opts);
    const gen::StreamTrainResult b = gen::streamTrain(s2, opts);
    EXPECT_EQ(a.batches, b.batches);
    EXPECT_DOUBLE_EQ(a.firstLoss, b.firstLoss);
    EXPECT_DOUBLE_EQ(a.lastLoss, b.lastLoss);
    EXPECT_EQ(a.peakResidentBytes, b.peakResidentBytes);
}

TEST(StreamTrain, PeakResidencyBoundedByChunkBudget)
{
    // The acceptance criterion at reduced scale: training consumes a
    // graph whose full edge list would be ~30 MiB, while the producer
    // window AND the trainer's chunk-local state stay inside a small
    // multiple of the per-chunk budget — memory follows the chunk
    // partitioning, not the graph size.
    GeneratorConfig cfg = trainConfig();
    const int64_t full_bytes =
        cfg.m *
        static_cast<int64_t>(sizeof(std::pair<int64_t, int64_t>));
    const int64_t budget = gen::residentBudgetBytes(cfg);
    ASSERT_LT(budget, full_bytes / 4);

    gen::ChunkedEdgeStream stream(cfg);
    gen::DegreeAccumulator degrees(gen::resolvedVertices(cfg));
    gen::StreamTrainOptions opts;
    const gen::StreamTrainResult result =
        gen::streamTrain(stream, opts, &degrees);

    EXPECT_LE(stream.peakResidentBytes(), budget);
    // Trainer-side state (block + compact subgraph + features +
    // degree counts) is chunk-sized as well: the compact graph holds
    // the symmetrised chunk in int32, well under 4x one chunk's raw
    // block plus the fixed accumulator floor.
    EXPECT_LE(result.peakResidentBytes,
              4 * (full_bytes / cfg.chunks) + degrees.residentBytes() +
                  (int64_t{1} << 16));
    EXPECT_LT(result.peakResidentBytes, full_bytes / 2);
    EXPECT_EQ(result.edgesConsumed, stream.edgesEmitted());
    // The accumulator saw every edge as it streamed past.
    EXPECT_EQ(degrees.finalize().endpointsCounted,
              2 * result.edgesConsumed);
}

TEST(StreamTrain, HandlesTinyStreams)
{
    GeneratorConfig cfg;
    cfg.family = Family::Grid2d;
    cfg.gridRows = 3;
    cfg.gridCols = 3;
    cfg.chunks = 8; // clamps to 3 row-units
    gen::ChunkedEdgeStream stream(cfg);
    const gen::StreamTrainResult result =
        gen::streamTrain(stream, gen::StreamTrainOptions{});
    EXPECT_EQ(result.chunks, 3);
    EXPECT_EQ(result.batches, 3);
    EXPECT_EQ(result.edgesConsumed, 12);
}

TEST(StreamTrain, WindowedSeriesCoverEveryChunk)
{
    GeneratorConfig cfg = trainConfig();
    gen::ChunkedEdgeStream stream(cfg);
    gen::StreamTrainOptions opts;
    opts.windowChunks = 2;
    const gen::StreamTrainResult result =
        gen::streamTrain(stream, opts);
    ASSERT_FALSE(result.edgeWindows.empty());
    EXPECT_EQ(result.edgeWindows.size(), result.lossWindows.size());

    int64_t chunks = 0;
    double edges = 0;
    for (const obs::WindowStats &w : result.edgeWindows) {
        EXPECT_LE(w.count, opts.windowChunks);
        chunks += w.count;
        edges += w.sum;
    }
    EXPECT_EQ(chunks, result.chunks);
    EXPECT_DOUBLE_EQ(edges,
                     static_cast<double>(result.edgesConsumed));
    // Loss windows carry real values inside [min, max].
    for (const obs::WindowStats &w : result.lossWindows) {
        if (w.count == 0)
            continue;
        EXPECT_GT(w.minValue, 0);
        EXPECT_LE(w.minValue, w.maxValue);
        EXPECT_GE(w.mean(), w.minValue);
        EXPECT_LE(w.mean(), w.maxValue);
    }
}

TEST(StreamTrain, WindowedSeriesDeterministicAcrossStreams)
{
    const GeneratorConfig cfg = trainConfig();
    gen::StreamTrainOptions opts;
    opts.windowChunks = 3;
    gen::ChunkedEdgeStream s1(cfg), s2(cfg);
    const gen::StreamTrainResult a = gen::streamTrain(s1, opts);
    const gen::StreamTrainResult b = gen::streamTrain(s2, opts);
    ASSERT_EQ(a.lossWindows.size(), b.lossWindows.size());
    for (size_t i = 0; i < a.lossWindows.size(); ++i) {
        EXPECT_EQ(a.lossWindows[i].count, b.lossWindows[i].count);
        EXPECT_DOUBLE_EQ(a.lossWindows[i].sum, b.lossWindows[i].sum);
        EXPECT_DOUBLE_EQ(a.edgeWindows[i].sum, b.edgeWindows[i].sum);
    }
}

TEST(StreamTrain, WindowsOffByDefault)
{
    GeneratorConfig cfg = trainConfig();
    gen::ChunkedEdgeStream stream(cfg);
    const gen::StreamTrainResult result =
        gen::streamTrain(stream, gen::StreamTrainOptions{});
    EXPECT_TRUE(result.edgeWindows.empty());
    EXPECT_TRUE(result.lossWindows.empty());
}
