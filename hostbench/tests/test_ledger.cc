// Tests for the benchmark's own arithmetic: the tail percentile rule,
// self time from nested spans across lanes, and the expected-value
// comparison. Build and run:
//
//   cmake --build .bench_build/hostbench --target hostbench_tests
//   .bench_build/hostbench/hostbench_tests

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "ledger.hh"

using namespace hostbench;

TEST(Median, OddAndEvenCounts)
{
    EXPECT_EQ(median({3, 1, 2}), 2);
    EXPECT_EQ(median({4, 1, 3, 2}), 2.5);
    EXPECT_EQ(median({}), 0);
}

TEST(TailPercentile, LeavesExactlyTenSamplesBeyond)
{
    std::vector<double> samples;
    for (int i = 30; i >= 1; --i) // unsorted on purpose
        samples.push_back(i);
    const auto tail = tailPercentile(samples, 10);
    ASSERT_TRUE(tail);
    EXPECT_EQ(tail->value, 20); // ranks 21..30 lie beyond it
    EXPECT_EQ(tail->count, 30u);
    EXPECT_EQ(tail->beyond, 10u);
    EXPECT_NEAR(tail->percentile, 100.0 * 20 / 30, 1e-12);
}

TEST(TailPercentile, HundredSamplesGiveP90)
{
    std::vector<double> samples;
    for (int i = 1; i <= 100; ++i)
        samples.push_back(i);
    const auto tail = tailPercentile(samples, 10);
    ASSERT_TRUE(tail);
    EXPECT_EQ(tail->value, 90);
    EXPECT_EQ(tail->percentile, 90);
}

TEST(TailPercentile, UndefinedWithoutEnoughSamples)
{
    EXPECT_FALSE(tailPercentile({1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 10));
    const auto one = tailPercentile({1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11}, 10);
    ASSERT_TRUE(one);
    EXPECT_EQ(one->value, 1); // the minimum: ten samples above it
}

TEST(SelfTime, NestedSpansSubtractDirectChildrenOnly)
{
    // step [0,100) > backward [10,60) > gemm [20,40) > chunk [25,35)
    const std::vector<Span> spans = {
        {0, "op.gemm.chunk", 25, 10},
        {0, "op.gemm", 20, 20},
        {0, "autograd.backward", 10, 50},
        {0, "bench.step", 0, 100},
    };
    const auto self = selfTimesUs(spans);
    EXPECT_DOUBLE_EQ(self.at("bench.step"), 50);
    EXPECT_DOUBLE_EQ(self.at("autograd.backward"), 30);
    EXPECT_DOUBLE_EQ(self.at("op.gemm"), 10);
    EXPECT_DOUBLE_EQ(self.at("op.gemm.chunk"), 10);
    double sum = 0;
    for (const auto &[name, us] : self)
        sum += us;
    EXPECT_DOUBLE_EQ(sum, 100); // self times partition the root
}

TEST(SelfTime, SpansOnOtherLanesNeverNest)
{
    // A worker's chunk overlaps the host's gemm in time but runs on
    // its own lane: it must not reduce the host span's self time.
    const std::vector<Span> spans = {
        {0, "op.gemm", 0, 100},
        {0, "op.gemm.chunk", 0, 40},
        {1, "op.gemm.chunk", 0, 90},
        {2, "op.gemm.chunk", 10, 70},
    };
    const auto self = selfTimesUs(spans);
    EXPECT_DOUBLE_EQ(self.at("op.gemm"), 60);
    EXPECT_DOUBLE_EQ(self.at("op.gemm.chunk"), 40 + 90 + 70);
    EXPECT_DOUBLE_EQ(outermostUs(spans), 100 + 90 + 70);
}

TEST(SelfTime, SiblingsAndOverhangingChildren)
{
    // Two siblings under one parent, the second overhanging the
    // parent's end by clock rounding (clipped), then a later root.
    const std::vector<Span> spans = {
        {0, "parent", 0, 50},
        {0, "a", 5, 10},
        {0, "b", 30, 21},
        {0, "later", 60, 5},
    };
    const auto self = selfTimesUs(spans);
    EXPECT_DOUBLE_EQ(self.at("parent"), 50 - 10 - 20);
    EXPECT_DOUBLE_EQ(self.at("a"), 10);
    EXPECT_DOUBLE_EQ(self.at("b"), 21);
    EXPECT_DOUBLE_EQ(self.at("later"), 5);
    EXPECT_DOUBLE_EQ(outermostUs(spans), 55);
}

TEST(SelfTime, EqualStartPutsTheLongerSpanOutside)
{
    const std::vector<Span> spans = {
        {0, "inner", 0, 10},
        {0, "outer", 0, 30},
    };
    const auto self = selfTimesUs(spans);
    EXPECT_DOUBLE_EQ(self.at("outer"), 20);
    EXPECT_DOUBLE_EQ(self.at("inner"), 10);
}

namespace {

StepOutputs
sample()
{
    StepOutputs out;
    out.lossBits = floatBits(1.25f);
    out.launches = 633;
    out.kernelBits = doubleBits(0.0037);
    out.l1HitBits = doubleBits(2.6e6);
    out.l2HitBits = doubleBits(8.1e6);
    return out;
}

} // namespace

TEST(ExpectedValues, FormatParseRoundTrip)
{
    const StepOutputs out = sample();
    const auto back = parseOutputs(formatOutputs(out));
    ASSERT_TRUE(back);
    EXPECT_TRUE(*back == out);
    EXPECT_FALSE(parseOutputs("3fa00000 633 zz"));
    EXPECT_FALSE(parseOutputs(formatOutputs(out) + " extra"));
}

TEST(ExpectedValues, EqualStepPasses)
{
    const std::vector<StepOutputs> table = {sample(), sample()};
    EXPECT_EQ(checkStep(sample(), 1, &table), "");
    EXPECT_EQ(checkStep(sample(), 7, nullptr), ""); // no table: finite only
}

TEST(ExpectedValues, OneBitOfAnyFieldFails)
{
    const std::vector<StepOutputs> table = {sample()};
    StepOutputs got = sample();
    got.l2HitBits ^= 1; // last bit of the L2 hit count
    EXPECT_NE(checkStep(got, 0, &table), "");
    got = sample();
    got.lossBits ^= 1;
    EXPECT_NE(checkStep(got, 0, &table), "");
    got = sample();
    got.launches += 1;
    EXPECT_NE(checkStep(got, 0, &table), "");
    got = sample();
    got.kernelBits = doubleBits(-0.0037);
    EXPECT_NE(checkStep(got, 0, &table), "");
}

TEST(ExpectedValues, NonFiniteLossFailsWithOrWithoutTable)
{
    StepOutputs got = sample();
    got.lossBits = floatBits(std::numeric_limits<float>::quiet_NaN());
    EXPECT_NE(checkStep(got, 0, nullptr), "");
    got.lossBits = floatBits(std::numeric_limits<float>::infinity());
    const std::vector<StepOutputs> table = {got}; // even if "expected"
    EXPECT_NE(checkStep(got, 0, &table), "");
}

TEST(ExpectedValues, StepPastTheTableFails)
{
    const std::vector<StepOutputs> table = {sample()};
    EXPECT_NE(checkStep(sample(), 1, &table), "");
    const std::vector<StepOutputs> empty;
    EXPECT_NE(checkStep(sample(), 0, &empty), "");
}
