/** @file Index-select / gather / scatter-add and radix-sort tests. */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <vector>

#include "base/rng.hh"
#include "ops/exec_context.hh"
#include "ops/index.hh"
#include "ops/sort.hh"
#include "profiler/profiler.hh"

using namespace gnnmark;

TEST(IndexSelect, PicksRows)
{
    Tensor a = Tensor::fromVector({3, 2}, {1, 2, 3, 4, 5, 6});
    Tensor out = ops::indexSelectRows(a, {2, 0, 2});
    EXPECT_EQ(out.size(0), 3);
    EXPECT_FLOAT_EQ(out(0, 0), 5.0f);
    EXPECT_FLOAT_EQ(out(1, 1), 2.0f);
    EXPECT_FLOAT_EQ(out(2, 1), 6.0f);
}

TEST(IndexSelect, EmptyIndexGivesEmpty)
{
    Tensor a = Tensor::zeros({3, 2});
    Tensor out = ops::indexSelectRows(a, {});
    EXPECT_EQ(out.size(0), 0);
}

TEST(IndexSelectDeath, OutOfRangePanics)
{
    Tensor a = Tensor::zeros({3, 2});
    EXPECT_DEATH(ops::indexSelectRows(a, {3}), "out of range");
}

TEST(Gather, SameSemanticsDifferentClass)
{
    GpuDevice dev;
    Profiler prof;
    dev.addObserver(&prof);
    Tensor a = Tensor::fromVector({2, 2}, {1, 2, 3, 4});
    {
        ContextGuard guard(&dev);
        Tensor g = ops::gatherRows(a, {1, 1, 0});
        EXPECT_FLOAT_EQ(g(0, 0), 3.0f);
        ops::indexSelectRows(a, {0});
    }
    EXPECT_EQ(prof.classStats(OpClass::Gather).launches, 1);
    EXPECT_EQ(prof.classStats(OpClass::IndexSelect).launches, 1);
}

TEST(ScatterAdd, AccumulatesRows)
{
    Tensor out = Tensor::zeros({3, 2});
    Tensor src = Tensor::fromVector({3, 2}, {1, 1, 2, 2, 4, 4});
    ops::scatterAddRows(out, {1, 1, 2}, src);
    EXPECT_FLOAT_EQ(out(0, 0), 0.0f);
    EXPECT_FLOAT_EQ(out(1, 0), 3.0f);
    EXPECT_FLOAT_EQ(out(2, 1), 4.0f);
}

TEST(ScatterAdd, InverseOfGatherForPermutation)
{
    Rng rng(12);
    Tensor a = Tensor::randn({10, 4}, rng);
    auto perm = rng.permutation(10);
    Tensor g = ops::gatherRows(a, perm);
    Tensor back = Tensor::zeros({10, 4});
    ops::scatterAddRows(back, perm, g);
    EXPECT_TRUE(allClose(back, a));
}

TEST(ScatterAdd, LaneRowsMatchScalarLoopBitwise)
{
    Rng rng(15);
    for (const int64_t f : {1, 7, 8, 9, 72}) {
        const int64_t n = 6;
        const int64_t m = 40; // indices repeat: m > n
        std::vector<int32_t> idx(m);
        for (int32_t &r : idx)
            r = static_cast<int32_t>(rng.randint(uint64_t{n}));
        // Mixed magnitudes make the float sums order-sensitive.
        auto value = [&rng]() {
            const float v = rng.uniform(-1.0f, 1.0f);
            return rng.bernoulli(0.2) ? v * 1e7f : v;
        };
        std::vector<float> out(n * f), src(m * f);
        for (float &v : out)
            v = value();
        for (float &v : src)
            v = value();
        std::vector<float> want = out;
        for (int64_t i = 0; i < m; ++i) {
            for (int64_t j = 0; j < f; ++j)
                want[idx[i] * f + j] += src[i * f + j];
        }
        Tensor t = Tensor::fromVector({n, f}, out);
        ops::scatterAddRows(t, idx, Tensor::fromVector({m, f}, src));
        EXPECT_EQ(std::memcmp(t.data(), want.data(),
                              want.size() * sizeof(float)),
                  0)
            << "f=" << f;
    }
}

TEST(ScatterAdd, OverlappingSourceMatchesSequentialLoop)
{
    // out is src's storage shifted by one float, so adding src row i
    // into out row i reads, at distance 1, what it has just written.
    Rng rng(16);
    const int64_t f = 9;
    Tensor base = Tensor::randn({4 * f + 1, 1}, rng);
    std::vector<float> want(base.data(), base.data() + base.numel());
    Tensor out = base.viewRows(1, 4 * f + 1).reshape({4, f});
    const Tensor src = base.viewRows(0, 4 * f).reshape({4, f});
    const std::vector<int32_t> idx = {1, 1, 3, 0};
    for (size_t i = 0; i < idx.size(); ++i) {
        for (int64_t j = 0; j < f; ++j)
            want[1 + idx[i] * f + j] += want[i * f + j];
    }
    ops::scatterAddRows(out, idx, src);
    EXPECT_EQ(std::memcmp(base.data(), want.data(),
                          want.size() * sizeof(float)),
              0);
}

TEST(ScatterAdd, EmitsScatterClassWithAtomics)
{
    GpuDevice dev;
    Profiler prof;
    dev.addObserver(&prof);
    Rng rng(13);
    Tensor out = Tensor::zeros({64, 32});
    Tensor src = Tensor::randn({128, 32}, rng);
    std::vector<int32_t> idx(128);
    for (int i = 0; i < 128; ++i)
        idx[i] = static_cast<int32_t>(rng.randint(uint64_t{64}));
    {
        ContextGuard guard(&dev);
        ops::scatterAddRows(out, idx, src);
    }
    EXPECT_EQ(prof.classStats(OpClass::Scatter).launches, 1);
}

TEST(Sort, SortsAscending)
{
    std::vector<int32_t> keys = {5, 3, 9, 1, 3, 0};
    ops::sortKeys(keys);
    EXPECT_TRUE(std::is_sorted(keys.begin(), keys.end()));
    EXPECT_EQ(keys.front(), 0);
    EXPECT_EQ(keys.back(), 9);
}

TEST(Sort, KeyValueStable)
{
    std::vector<int32_t> keys = {2, 1, 2, 1};
    std::vector<int32_t> vals = {10, 20, 30, 40};
    ops::sortKeyValue(keys, vals);
    EXPECT_EQ(keys, (std::vector<int32_t>{1, 1, 2, 2}));
    // Stability: equal keys preserve original order.
    EXPECT_EQ(vals, (std::vector<int32_t>{20, 40, 10, 30}));
}

TEST(Sort, HandlesEmptyAndSingle)
{
    std::vector<int32_t> empty;
    ops::sortKeys(empty);
    EXPECT_TRUE(empty.empty());
    std::vector<int32_t> one = {42};
    ops::sortKeys(one);
    EXPECT_EQ(one[0], 42);
}

TEST(SortDeath, NegativeKeysPanic)
{
    std::vector<int32_t> keys = {1, -2, 3};
    EXPECT_DEATH(ops::sortKeys(keys), "non-negative");
}

TEST(Sort, SortedUnique)
{
    auto u = ops::sortedUnique({5, 1, 5, 3, 1, 1});
    EXPECT_EQ(u, (std::vector<int32_t>{1, 3, 5}));
}

TEST(Sort, EmitsSortKernels)
{
    GpuDevice dev;
    Profiler prof;
    dev.addObserver(&prof);
    std::vector<int32_t> keys(4096);
    Rng rng(14);
    for (auto &k : keys)
        k = static_cast<int32_t>(rng.randint(uint64_t{1 << 30}));
    {
        ContextGuard guard(&dev);
        ops::sortKeys(keys);
    }
    // 4 radix passes, each a histogram + scatter kernel.
    EXPECT_EQ(prof.classStats(OpClass::Sort).launches, 8);
    EXPECT_GT(prof.classStats(OpClass::Sort).intOps, 0);
}

/** Property: sorting equals std::sort on random arrays. */
class SortSweep : public ::testing::TestWithParam<int>
{
};

TEST_P(SortSweep, MatchesStdSort)
{
    Rng rng(GetParam());
    std::vector<int32_t> keys(GetParam());
    for (auto &k : keys)
        k = static_cast<int32_t>(rng.randint(uint64_t{1} << 31));
    auto expected = keys;
    std::sort(expected.begin(), expected.end());
    ops::sortKeys(keys);
    EXPECT_EQ(keys, expected);
}

TEST_P(SortSweep, KeyValuePermutationConsistent)
{
    Rng rng(GetParam() + 1000);
    const int n = GetParam();
    std::vector<int32_t> keys(n), vals(n);
    for (int i = 0; i < n; ++i) {
        keys[i] = static_cast<int32_t>(rng.randint(uint64_t{1000}));
        vals[i] = i;
    }
    auto orig_keys = keys;
    ops::sortKeyValue(keys, vals);
    // vals is a permutation carrying each key to its sorted slot.
    for (int i = 0; i < n; ++i)
        EXPECT_EQ(keys[i], orig_keys[vals[i]]);
}

INSTANTIATE_TEST_SUITE_P(Sizes, SortSweep,
                         ::testing::Values(2, 10, 100, 1000, 10000));
