/** @file Tests for the GeneratorConfig facade and its resolution. */

#include <gtest/gtest.h>

#include "gen/config.hh"
#include "gen/families.hh"

using namespace gnnmark;
using gen::Family;
using gen::GeneratorConfig;

TEST(GenConfig, FamilyNamesRoundTrip)
{
    for (Family f : {Family::Rmat, Family::Rgg2d, Family::Hyperbolic,
                     Family::Grid2d}) {
        Family parsed;
        ASSERT_TRUE(gen::parseFamily(gen::familyName(f), parsed));
        EXPECT_EQ(parsed, f);
    }
    Family parsed;
    EXPECT_FALSE(gen::parseFamily("klein-bottle", parsed));
    EXPECT_FALSE(gen::parseFamily("", parsed));
    EXPECT_FALSE(gen::parseFamily("RMAT", parsed));
}

TEST(GenConfig, DefaultIsValid)
{
    GeneratorConfig cfg;
    EXPECT_EQ(gen::validateConfig(cfg), "");
}

TEST(GenConfig, RejectsBadScale)
{
    GeneratorConfig cfg;
    cfg.n = -4;
    EXPECT_NE(gen::validateConfig(cfg), "");
    cfg.n = 1;
    EXPECT_NE(gen::validateConfig(cfg), "");
    cfg = GeneratorConfig{};
    cfg.m = -1;
    EXPECT_NE(gen::validateConfig(cfg), "");
    cfg = GeneratorConfig{};
    cfg.m = 0;
    cfg.avgDegree = 0.0;
    EXPECT_NE(gen::validateConfig(cfg), "");
}

TEST(GenConfig, RejectsBadChunking)
{
    GeneratorConfig cfg;
    cfg.chunks = 0;
    EXPECT_NE(gen::validateConfig(cfg), "");
    cfg = GeneratorConfig{};
    cfg.lookahead = 0;
    EXPECT_NE(gen::validateConfig(cfg), "");
}

TEST(GenConfig, RejectsBadFamilyKnobs)
{
    GeneratorConfig cfg;
    cfg.family = Family::Hyperbolic;
    cfg.gamma = 2.0; // must be > 2
    EXPECT_NE(gen::validateConfig(cfg), "");

    cfg = GeneratorConfig{};
    cfg.family = Family::Grid2d;
    cfg.gridRows = 4; // rows without cols
    EXPECT_NE(gen::validateConfig(cfg), "");
    cfg.gridCols = 1; // < 2
    EXPECT_NE(gen::validateConfig(cfg), "");
    cfg.gridCols = 8;
    EXPECT_EQ(gen::validateConfig(cfg), "");
}

TEST(GenConfig, RmatRoundsToPowerOfTwo)
{
    GeneratorConfig cfg;
    cfg.family = Family::Rmat;
    cfg.n = 1000;
    EXPECT_EQ(gen::resolvedVertices(cfg), 1024);
    cfg.n = 1024;
    EXPECT_EQ(gen::resolvedVertices(cfg), 1024);
    cfg.n = 1025;
    EXPECT_EQ(gen::resolvedVertices(cfg), 2048);
}

TEST(GenConfig, TargetEdgesFromDegreeOrM)
{
    GeneratorConfig cfg;
    cfg.family = Family::Rgg2d;
    cfg.n = 1000;
    cfg.avgDegree = 10.0;
    EXPECT_EQ(gen::resolvedTargetEdges(cfg), 5000);
    cfg.m = 777;
    EXPECT_EQ(gen::resolvedTargetEdges(cfg), 777);
}

TEST(GenConfig, GridShapeExactAndFactored)
{
    GeneratorConfig cfg;
    cfg.family = Family::Grid2d;
    cfg.gridRows = 6;
    cfg.gridCols = 9;
    int64_t rows = 0, cols = 0;
    gen::resolvedGridShape(cfg, rows, cols);
    EXPECT_EQ(rows, 6);
    EXPECT_EQ(cols, 9);
    EXPECT_EQ(gen::resolvedVertices(cfg), 54);
    // Interior lattice: r*(c-1) + c*(r-1) edges.
    EXPECT_EQ(gen::resolvedTargetEdges(cfg), 6 * 8 + 9 * 5);

    cfg = GeneratorConfig{};
    cfg.family = Family::Grid2d;
    cfg.n = 12;
    gen::resolvedGridShape(cfg, rows, cols);
    EXPECT_GE(rows, 2);
    EXPECT_GE(cols, 2);
    EXPECT_EQ(rows * cols, gen::resolvedVertices(cfg));
    EXPECT_LE(rows * cols, 12 + cols); // near n, never wildly above

    cfg.gridWrap = true;
    // Torus: every vertex emits right + down => exactly 2 * n edges.
    EXPECT_EQ(gen::resolvedTargetEdges(cfg), 2 * rows * cols);
}

TEST(GenConfig, UnitCountIndependentOfChunksAndPositive)
{
    for (Family f : {Family::Rmat, Family::Rgg2d, Family::Hyperbolic,
                     Family::Grid2d}) {
        GeneratorConfig cfg;
        cfg.family = f;
        cfg.n = 5000;
        const int64_t units = gen::unitCount(cfg);
        EXPECT_GE(units, 1) << gen::familyName(f);
        cfg.chunks = 64;
        cfg.lookahead = 1;
        EXPECT_EQ(gen::unitCount(cfg), units) << gen::familyName(f);
    }
}
