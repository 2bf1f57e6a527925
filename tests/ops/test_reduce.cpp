/** @file Reduction operator tests. */

#include <gtest/gtest.h>

#include "base/rng.hh"
#include "ops/reduce.hh"

using namespace gnnmark;

TEST(Reduce, SumAndMeanAll)
{
    Tensor a = Tensor::fromVector({2, 2}, {1, 2, 3, 4});
    EXPECT_FLOAT_EQ(ops::reduceSumAll(a), 10.0f);
    EXPECT_FLOAT_EQ(ops::reduceMeanAll(a), 2.5f);
}

TEST(Reduce, SumRows)
{
    Tensor a = Tensor::fromVector({2, 3}, {1, 2, 3, 4, 5, 6});
    Tensor r = ops::reduceSumRows(a);
    EXPECT_FLOAT_EQ(r(0), 6.0f);
    EXPECT_FLOAT_EQ(r(1), 15.0f);
}

TEST(Reduce, MaxRowsAndArgmax)
{
    Tensor a = Tensor::fromVector({2, 3}, {1, 9, 3, -4, -5, -1});
    Tensor m = ops::reduceMaxRows(a);
    EXPECT_FLOAT_EQ(m(0), 9.0f);
    EXPECT_FLOAT_EQ(m(1), -1.0f);
    auto idx = ops::argmaxRows(a);
    EXPECT_EQ(idx[0], 1);
    EXPECT_EQ(idx[1], 2);
}

TEST(Reduce, SumCols)
{
    Tensor a = Tensor::fromVector({2, 3}, {1, 2, 3, 4, 5, 6});
    Tensor r = ops::reduceSumCols(a);
    EXPECT_FLOAT_EQ(r(0), 5.0f);
    EXPECT_FLOAT_EQ(r(2), 9.0f);
}

TEST(Reduce, SegmentSum)
{
    Tensor src = Tensor::fromVector({4, 2}, {1, 1, 2, 2, 3, 3, 4, 4});
    std::vector<int32_t> offsets = {0, 1, 1, 4};
    Tensor out = ops::segmentSumRows(src, offsets);
    EXPECT_FLOAT_EQ(out(0, 0), 1.0f);
    EXPECT_FLOAT_EQ(out(1, 0), 0.0f); // empty segment
    EXPECT_FLOAT_EQ(out(2, 1), 9.0f);
}

TEST(Reduce, RowBroadcasts)
{
    Tensor a = Tensor::fromVector({2, 2}, {2, 4, 6, 8});
    Tensor v = Tensor::fromVector({2}, {2, 4});
    EXPECT_FLOAT_EQ(ops::subRowsBy(a, v)(0, 1), 2.0f);
    EXPECT_FLOAT_EQ(ops::divRowsBy(a, v)(1, 1), 2.0f);
    EXPECT_FLOAT_EQ(ops::mulRowsBy(a, v)(1, 0), 24.0f);
}

TEST(ReduceDeath, SegmentOffsetsMustCoverSrc)
{
    Tensor src = Tensor::zeros({4, 2});
    std::vector<int32_t> offsets = {0, 2}; // ends at 2, src has 4 rows
    EXPECT_DEATH(ops::segmentSumRows(src, offsets), "offsets end");
}

/** Property: row sum + col sum both equal the total sum. */
class ReduceSweep : public ::testing::TestWithParam<
                        std::pair<int64_t, int64_t>>
{
};

TEST_P(ReduceSweep, RowColTotalsAgree)
{
    auto [n, f] = GetParam();
    Rng rng(n * 17 + f);
    Tensor a = Tensor::randn({n, f}, rng);
    float total = ops::reduceSumAll(a);
    Tensor rows = ops::reduceSumRows(a);
    Tensor cols = ops::reduceSumCols(a);
    double rsum = 0, csum = 0;
    for (int64_t i = 0; i < n; ++i)
        rsum += rows(i);
    for (int64_t j = 0; j < f; ++j)
        csum += cols(j);
    EXPECT_NEAR(rsum, total, std::abs(total) * 1e-4 + 1e-2);
    EXPECT_NEAR(csum, total, std::abs(total) * 1e-4 + 1e-2);
}

TEST_P(ReduceSweep, SegmentSumOfTrivialSegmentsIsIdentity)
{
    auto [n, f] = GetParam();
    Rng rng(n * 23 + f);
    Tensor a = Tensor::randn({n, f}, rng);
    std::vector<int32_t> offsets(n + 1);
    for (int64_t i = 0; i <= n; ++i)
        offsets[i] = static_cast<int32_t>(i);
    EXPECT_TRUE(allClose(ops::segmentSumRows(a, offsets), a));
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, ReduceSweep,
    ::testing::Values(std::pair<int64_t, int64_t>{1, 1},
                      std::pair<int64_t, int64_t>{3, 65},
                      std::pair<int64_t, int64_t>{64, 7},
                      std::pair<int64_t, int64_t>{100, 33}));
