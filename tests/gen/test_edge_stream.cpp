/**
 * @file
 * Tests for the streaming producer itself: memory stays inside the
 * chunk budget, the materializing path agrees with the stream, and
 * the checksum is an honest order-dependent digest.
 */

#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "gen/config.hh"
#include "gen/edge_stream.hh"
#include "graph/graph.hh"

using namespace gnnmark;
using gen::Family;
using gen::GeneratorConfig;

namespace {

GeneratorConfig
smallConfig(Family family)
{
    GeneratorConfig cfg;
    cfg.family = family;
    cfg.n = 4000;
    cfg.seed = 99;
    return cfg;
}

} // namespace

TEST(EdgeStream, EmitsTargetEdgeVolume)
{
    for (Family family :
         {Family::Rmat, Family::Hyperbolic, Family::Grid2d}) {
        const GeneratorConfig cfg = smallConfig(family);
        gen::ChunkedEdgeStream stream(cfg);
        gen::EdgeBlock block;
        while (stream.next(block)) {
        }
        const double target =
            static_cast<double>(gen::resolvedTargetEdges(cfg));
        // Exact for rmat/grid; an expectation for the scale-free
        // family (self-loop skips pull it slightly under).
        EXPECT_GT(static_cast<double>(stream.edgesEmitted()),
                  target * 0.85)
            << gen::familyName(family);
        EXPECT_LT(static_cast<double>(stream.edgesEmitted()),
                  target * 1.15)
            << gen::familyName(family);
        EXPECT_EQ(stream.chunksEmitted(), stream.chunkCount());
    }
}

TEST(EdgeStream, PeakResidencyStaysInsideBudget)
{
    for (Family family : {Family::Rmat, Family::Rgg2d,
                          Family::Hyperbolic, Family::Grid2d}) {
        GeneratorConfig cfg = smallConfig(family);
        cfg.n = 20000;
        cfg.chunks = 16;
        cfg.lookahead = 2;
        gen::ChunkedEdgeStream stream(cfg);
        gen::EdgeBlock block;
        while (stream.next(block)) {
        }
        EXPECT_LE(stream.peakResidentBytes(),
                  gen::residentBudgetBytes(cfg))
            << gen::familyName(family);
    }
}

TEST(EdgeStream, ChunkingShrinksTheBudgetBelowFullMaterialization)
{
    GeneratorConfig cfg = smallConfig(Family::Rmat);
    cfg.n = 1 << 16;
    cfg.m = 1 << 20;
    cfg.chunks = 64;
    cfg.lookahead = 2;
    const int64_t full_bytes =
        cfg.m *
        static_cast<int64_t>(sizeof(std::pair<int64_t, int64_t>));
    // The streaming window is a small fraction of the materialized
    // edge list — that is the whole point of the subsystem.
    EXPECT_LT(gen::residentBudgetBytes(cfg), full_bytes / 4);

    gen::ChunkedEdgeStream stream(cfg);
    gen::EdgeBlock block;
    while (stream.next(block)) {
    }
    EXPECT_LE(stream.peakResidentBytes(), gen::residentBudgetBytes(cfg));
    EXPECT_LT(stream.peakResidentBytes(), full_bytes / 4);
    EXPECT_EQ(stream.edgesEmitted(), cfg.m);
}

TEST(EdgeStream, BlocksArriveInChunkOrder)
{
    GeneratorConfig cfg = smallConfig(Family::Hyperbolic);
    cfg.chunks = 8;
    gen::ChunkedEdgeStream stream(cfg);
    gen::EdgeBlock block;
    int64_t expect = 0;
    while (stream.next(block))
        EXPECT_EQ(block.chunkIndex, expect++);
    EXPECT_EQ(expect, stream.chunkCount());
}

TEST(EdgeStream, ChecksumIsOrderDependent)
{
    uint64_t a = gen::kChecksumSeed;
    a = gen::edgeChecksum(a, 1, 2);
    a = gen::edgeChecksum(a, 3, 4);
    uint64_t b = gen::kChecksumSeed;
    b = gen::edgeChecksum(b, 3, 4);
    b = gen::edgeChecksum(b, 1, 2);
    EXPECT_NE(a, b);

    // Recomputing over the stream's own blocks reproduces its digest.
    const GeneratorConfig cfg = smallConfig(Family::Rmat);
    gen::ChunkedEdgeStream stream(cfg);
    gen::EdgeBlock block;
    uint64_t recomputed = gen::kChecksumSeed;
    while (stream.next(block))
        for (const auto &[u, v] : block.edges)
            recomputed = gen::edgeChecksum(recomputed, u, v);
    EXPECT_EQ(recomputed, stream.checksum());
}

TEST(EdgeStream, ClampsChunksToUnitCount)
{
    GeneratorConfig cfg = smallConfig(Family::Grid2d);
    cfg.gridRows = 4; // 4 row-units
    cfg.gridCols = 100;
    cfg.chunks = 64;
    gen::ChunkedEdgeStream stream(cfg);
    EXPECT_EQ(stream.chunkCount(), 4);
    gen::EdgeBlock block;
    int64_t blocks = 0;
    while (stream.next(block))
        ++blocks;
    EXPECT_EQ(blocks, 4);
}
