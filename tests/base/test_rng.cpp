/** @file Unit and property tests for the deterministic RNG. */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>
#include <vector>

#include "base/rng.hh"

using namespace gnnmark;

TEST(Rng, SameSeedSameStream)
{
    Rng a(123), b(123);
    for (int i = 0; i < 1000; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 100; ++i)
        same += a.next() == b.next();
    EXPECT_LT(same, 3);
}

TEST(Rng, UniformInUnitInterval)
{
    Rng rng(7);
    for (int i = 0; i < 10000; ++i) {
        double u = rng.uniform();
        EXPECT_GE(u, 0.0);
        EXPECT_LT(u, 1.0);
    }
}

TEST(Rng, UniformRangeRespected)
{
    Rng rng(7);
    for (int i = 0; i < 10000; ++i) {
        float u = rng.uniform(-2.5f, 3.5f);
        EXPECT_GE(u, -2.5f);
        EXPECT_LT(u, 3.5f);
    }
}

TEST(Rng, UniformMeanNearHalf)
{
    Rng rng(11);
    double sum = 0;
    const int n = 100000;
    for (int i = 0; i < n; ++i)
        sum += rng.uniform();
    EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(Rng, NormalMoments)
{
    Rng rng(13);
    double sum = 0, sq = 0;
    const int n = 100000;
    for (int i = 0; i < n; ++i) {
        double v = rng.normal();
        sum += v;
        sq += v * v;
    }
    EXPECT_NEAR(sum / n, 0.0, 0.02);
    EXPECT_NEAR(sq / n, 1.0, 0.03);
}

TEST(Rng, NormalScaled)
{
    Rng rng(17);
    double sum = 0;
    const int n = 50000;
    for (int i = 0; i < n; ++i)
        sum += rng.normal(10.0, 2.0);
    EXPECT_NEAR(sum / n, 10.0, 0.1);
}

TEST(Rng, RandintBounds)
{
    Rng rng(19);
    for (int i = 0; i < 10000; ++i)
        EXPECT_LT(rng.randint(uint64_t{17}), 17u);
}

TEST(Rng, RandintCoversAllValues)
{
    Rng rng(23);
    std::set<uint64_t> seen;
    for (int i = 0; i < 1000; ++i)
        seen.insert(rng.randint(uint64_t{8}));
    EXPECT_EQ(seen.size(), 8u);
}

TEST(Rng, RandintInclusiveRange)
{
    Rng rng(29);
    for (int i = 0; i < 1000; ++i) {
        int64_t v = rng.randint(int64_t{-3}, int64_t{3});
        EXPECT_GE(v, -3);
        EXPECT_LE(v, 3);
    }
}

TEST(Rng, BernoulliFrequency)
{
    Rng rng(31);
    int hits = 0;
    const int n = 100000;
    for (int i = 0; i < n; ++i)
        hits += rng.bernoulli(0.3);
    EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

TEST(Rng, DiscreteFollowsWeights)
{
    Rng rng(37);
    std::vector<double> w = {1.0, 3.0};
    int ones = 0;
    const int n = 40000;
    for (int i = 0; i < n; ++i)
        ones += rng.discrete(w) == 1;
    EXPECT_NEAR(static_cast<double>(ones) / n, 0.75, 0.02);
}

TEST(Rng, DiscreteSkipsZeroWeight)
{
    Rng rng(41);
    std::vector<double> w = {0.0, 1.0, 0.0};
    for (int i = 0; i < 1000; ++i)
        EXPECT_EQ(rng.discrete(w), 1u);
}

TEST(Rng, ShuffleIsPermutation)
{
    Rng rng(43);
    std::vector<int> v = {1, 2, 3, 4, 5, 6, 7, 8, 9};
    auto orig = v;
    rng.shuffle(v);
    std::sort(v.begin(), v.end());
    EXPECT_EQ(v, orig);
}

TEST(Rng, PermutationContainsAll)
{
    Rng rng(47);
    auto p = rng.permutation(100);
    std::set<int32_t> s(p.begin(), p.end());
    EXPECT_EQ(s.size(), 100u);
    EXPECT_EQ(*s.begin(), 0);
    EXPECT_EQ(*s.rbegin(), 99);
}

/** Property sweep: randint has no obvious modulo bias at many bounds. */
class RngBoundSweep : public ::testing::TestWithParam<uint64_t>
{
};

TEST_P(RngBoundSweep, RandintRoughlyUniform)
{
    const uint64_t bound = GetParam();
    Rng rng(bound * 977 + 1);
    std::vector<int> counts(bound, 0);
    const int n = 20000;
    for (int i = 0; i < n; ++i)
        ++counts[rng.randint(bound)];
    const double expect = static_cast<double>(n) / bound;
    for (uint64_t b = 0; b < bound; ++b)
        EXPECT_NEAR(counts[b], expect, expect * 0.35 + 20);
}

INSTANTIATE_TEST_SUITE_P(Bounds, RngBoundSweep,
                         ::testing::Values(2, 3, 7, 10, 16, 33, 100));

TEST(RngState, RoundTripResumesStream)
{
    Rng rng(99);
    for (int i = 0; i < 57; ++i)
        rng.next();

    RngState snap = rng.state();
    std::vector<uint64_t> expect;
    for (int i = 0; i < 100; ++i)
        expect.push_back(rng.next());

    rng.setState(snap);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(rng.next(), expect[static_cast<size_t>(i)]);
}

TEST(RngState, CapturesBoxMullerSpare)
{
    // normal() caches a spare normal on every other call; a snapshot
    // taken between the pair must restore the cached value too.
    Rng rng(7);
    rng.normal(); // generates a pair, caches the spare

    RngState snap = rng.state();
    EXPECT_TRUE(snap.hasSpareNormal);
    const double next_normal = rng.normal(); // consumes the spare
    const uint64_t next_word = rng.next();

    Rng other(12345);
    other.setState(snap);
    EXPECT_DOUBLE_EQ(other.normal(), next_normal);
    EXPECT_EQ(other.next(), next_word);
}

TEST(RngState, StateEqualityDetectsDrift)
{
    Rng a(3), b(3);
    EXPECT_TRUE(a.state() == b.state());
    a.next();
    EXPECT_FALSE(a.state() == b.state());
}

TEST(RngSplit, PureFunctionOfStateAndId)
{
    Rng parent(42);
    parent.next();
    parent.next();
    const RngState before = parent.state();

    Rng a = parent.split(7);
    // split() must not advance the parent...
    EXPECT_TRUE(parent.state() == before);
    // ...and an equal-state generator derives the identical child.
    Rng twin(0);
    twin.setState(before);
    Rng b = twin.split(7);
    for (int i = 0; i < 1000; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(RngSplit, DistinctIdsGiveDistinctStreams)
{
    Rng parent(42);
    Rng a = parent.split(0);
    Rng b = parent.split(1);
    int same = 0;
    for (int i = 0; i < 1000; ++i)
        same += a.next() == b.next();
    EXPECT_LT(same, 3);
}

TEST(RngSplit, CrossStreamCorrelationSmoke)
{
    // Pearson correlation between sibling uniform streams should be
    // statistically indistinguishable from zero.
    Rng parent(1234);
    const int n = 50000;
    for (uint64_t id = 0; id < 8; id += 2) {
        Rng a = parent.split(id);
        Rng b = parent.split(id + 1);
        double sa = 0, sb = 0, saa = 0, sbb = 0, sab = 0;
        for (int i = 0; i < n; ++i) {
            const double x = a.uniform(), y = b.uniform();
            sa += x;
            sb += y;
            saa += x * x;
            sbb += y * y;
            sab += x * y;
        }
        const double cov = sab / n - (sa / n) * (sb / n);
        const double va = saa / n - (sa / n) * (sa / n);
        const double vb = sbb / n - (sb / n) * (sb / n);
        const double corr = cov / std::sqrt(va * vb);
        EXPECT_LT(std::abs(corr), 0.02)
            << "streams " << id << " and " << id + 1;
    }
}

TEST(RngSplit, ChildrenSurviveStateRoundTrip)
{
    Rng parent(7);
    parent.next();
    const RngState snap = parent.state();
    std::vector<uint64_t> expect;
    {
        Rng child = parent.split(3);
        for (int i = 0; i < 50; ++i)
            expect.push_back(child.next());
    }
    Rng restored(999);
    restored.setState(snap);
    Rng child = restored.split(3);
    for (int i = 0; i < 50; ++i)
        EXPECT_EQ(child.next(), expect[static_cast<size_t>(i)]);
}

TEST(RngSplit, ChildMeanIsUniform)
{
    Rng parent(5);
    Rng child = parent.split(11);
    double sum = 0;
    const int n = 100000;
    for (int i = 0; i < n; ++i)
        sum += child.uniform();
    EXPECT_NEAR(sum / n, 0.5, 0.01);
}
