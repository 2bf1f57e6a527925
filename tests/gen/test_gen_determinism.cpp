/**
 * @file
 * The central contract of the chunked generators: for a fixed config
 * and seed, the emitted edge sequence is byte-identical for ANY
 * thread count and ANY chunk granularity — plus per-family shape
 * checks on the degree distribution the stream produces.
 */

#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "base/thread_pool.hh"
#include "common/thread_count_guard.hh"
#include "gen/config.hh"
#include "gen/degree_stats.hh"
#include "gen/edge_stream.hh"

using namespace gnnmark;
using gen::Family;
using gen::GeneratorConfig;

namespace {

using EdgeList = std::vector<std::pair<int64_t, int64_t>>;

EdgeList
collect(GeneratorConfig cfg, int chunks)
{
    cfg.chunks = chunks;
    gen::ChunkedEdgeStream stream(cfg);
    EdgeList out;
    gen::EdgeBlock block;
    while (stream.next(block))
        out.insert(out.end(), block.edges.begin(), block.edges.end());
    return out;
}

uint64_t
streamChecksum(GeneratorConfig cfg, int chunks)
{
    cfg.chunks = chunks;
    gen::ChunkedEdgeStream stream(cfg);
    gen::EdgeBlock block;
    while (stream.next(block)) {
    }
    return stream.checksum();
}

GeneratorConfig
smallConfig(Family family)
{
    GeneratorConfig cfg;
    cfg.family = family;
    cfg.n = 4000;
    cfg.seed = 20260808;
    return cfg;
}

class GenFamilySweep : public ::testing::TestWithParam<Family>
{
};

} // namespace

TEST_P(GenFamilySweep, IdenticalEdgesAcrossThreadsAndChunks)
{
    const GeneratorConfig cfg = smallConfig(GetParam());
    EdgeList baseline;
    {
        test::ThreadCountGuard guard(1);
        baseline = collect(cfg, 1);
    }
    ASSERT_FALSE(baseline.empty());
    for (int threads : {1, 4, 16}) {
        test::ThreadCountGuard guard(threads);
        for (int chunks : {1, 8, 64}) {
            const EdgeList got = collect(cfg, chunks);
            ASSERT_EQ(got.size(), baseline.size())
                << "threads=" << threads << " chunks=" << chunks;
            EXPECT_EQ(got, baseline)
                << "threads=" << threads << " chunks=" << chunks;
        }
    }
}

TEST_P(GenFamilySweep, ChecksumStableAcrossChunkGranularity)
{
    const GeneratorConfig cfg = smallConfig(GetParam());
    const uint64_t expect = streamChecksum(cfg, 1);
    for (int chunks : {2, 8, 64})
        EXPECT_EQ(streamChecksum(cfg, chunks), expect)
            << "chunks=" << chunks;
}

TEST_P(GenFamilySweep, DifferentSeedsDifferentEdges)
{
    if (GetParam() == Family::Grid2d)
        GTEST_SKIP() << "the lattice is seed-free by construction";
    GeneratorConfig a = smallConfig(GetParam());
    GeneratorConfig b = a;
    b.seed = a.seed + 1;
    EXPECT_NE(collect(a, 8), collect(b, 8));
}

INSTANTIATE_TEST_SUITE_P(Families, GenFamilySweep,
                         ::testing::Values(Family::Rmat, Family::Rgg2d,
                                           Family::Hyperbolic,
                                           Family::Grid2d),
                         [](const auto &info) {
                             return gen::familyName(info.param);
                         });

namespace {

gen::DegreeStats
degreeStats(const GeneratorConfig &cfg)
{
    gen::ChunkedEdgeStream stream(cfg);
    gen::DegreeAccumulator acc(gen::resolvedVertices(cfg));
    gen::EdgeBlock block;
    while (stream.next(block))
        acc.accumulate(block);
    return acc.finalize();
}

} // namespace

TEST(GenDegreeShape, RmatIsHeavyTailed)
{
    GeneratorConfig cfg = smallConfig(Family::Rmat);
    cfg.n = 1 << 14;
    const gen::DegreeStats stats = degreeStats(cfg);
    // Both endpoints of m = n*avgDegree/2 edges => mean = avgDegree.
    EXPECT_NEAR(stats.meanDegree, cfg.avgDegree, cfg.avgDegree * 0.25);
    // Hubs: the max degree dwarfs the mean, and the log-log histogram
    // slope is clearly negative.
    EXPECT_GT(static_cast<double>(stats.maxDegree),
              stats.meanDegree * 10.0);
    ASSERT_TRUE(stats.slopeValid);
    EXPECT_LT(stats.powerLawSlope, -0.5);
}

TEST(GenDegreeShape, HyperbolicSlopeTracksGamma)
{
    GeneratorConfig cfg = smallConfig(Family::Hyperbolic);
    cfg.n = 1 << 14;
    const gen::DegreeStats stats = degreeStats(cfg);
    ASSERT_TRUE(stats.slopeValid);
    EXPECT_LT(stats.powerLawSlope, -1.0);
    EXPECT_GT(static_cast<double>(stats.maxDegree),
              stats.meanDegree * 10.0);

    // A steeper target exponent flattens the tail: fewer, smaller hubs.
    GeneratorConfig steep = cfg;
    steep.gamma = 6.0;
    const gen::DegreeStats steep_stats = degreeStats(steep);
    EXPECT_LT(steep_stats.maxDegree, stats.maxDegree);
}

TEST(GenDegreeShape, GridTorusIsRegular)
{
    GeneratorConfig cfg = smallConfig(Family::Grid2d);
    cfg.gridRows = 50;
    cfg.gridCols = 80;
    cfg.gridWrap = true;
    const gen::DegreeStats stats = degreeStats(cfg);
    // Torus: every vertex has exactly degree 4.
    EXPECT_EQ(stats.minDegree, 4);
    EXPECT_EQ(stats.maxDegree, 4);
    EXPECT_EQ(stats.distinctDegrees, 1);
    EXPECT_DOUBLE_EQ(stats.modalFraction, 1.0);
    EXPECT_FALSE(stats.slopeValid);
}

TEST(GenDegreeShape, GridInteriorDegreesBounded)
{
    GeneratorConfig cfg = smallConfig(Family::Grid2d);
    cfg.gridRows = 40;
    cfg.gridCols = 60;
    const gen::DegreeStats stats = degreeStats(cfg);
    // Open lattice: corners 2, borders 3, interior 4 — nothing else.
    EXPECT_EQ(stats.minDegree, 2);
    EXPECT_EQ(stats.maxDegree, 4);
    EXPECT_EQ(stats.distinctDegrees, 3);
    EXPECT_EQ(stats.modalDegree, 4);
    EXPECT_GT(stats.modalFraction, 0.9);
}

TEST(GenDegreeShape, RggIsNarrowlySpread)
{
    GeneratorConfig cfg = smallConfig(Family::Rgg2d);
    cfg.n = 8000;
    const gen::DegreeStats stats = degreeStats(cfg);
    // Geometric graphs have Poisson-like degrees: the mean lands near
    // the target and the max stays within a small factor of it —
    // nothing remotely hub-like.
    EXPECT_GT(stats.meanDegree, cfg.avgDegree * 0.5);
    EXPECT_LT(stats.meanDegree, cfg.avgDegree * 1.5);
    EXPECT_LT(static_cast<double>(stats.maxDegree),
              stats.meanDegree * 6.0);
}

TEST(GenDegreeShape, StrideSamplingKeepsMemoryBounded)
{
    GeneratorConfig cfg = smallConfig(Family::Rmat);
    cfg.n = 1 << 14;
    gen::ChunkedEdgeStream stream(cfg);
    gen::DegreeAccumulator acc(gen::resolvedVertices(cfg),
                               /*max_tracked=*/1024);
    gen::EdgeBlock block;
    while (stream.next(block))
        acc.accumulate(block);
    const gen::DegreeStats stats = acc.finalize();
    EXPECT_LE(stats.vertices, 1024);
    EXPECT_EQ(stats.sampleStride, 16); // 16384 / 1024
    EXPECT_LE(acc.residentBytes(), 1024 * 8);
    // The sampled shape still shows the heavy tail.
    EXPECT_GT(static_cast<double>(stats.maxDegree),
              stats.meanDegree * 4.0);
}
