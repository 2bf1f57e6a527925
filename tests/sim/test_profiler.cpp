/** @file Direct unit tests of the Profiler aggregation arithmetic,
 *  fed with synthetic KernelRecords (no device in the loop). */

#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "profiler/profiler.hh"

using namespace gnnmark;

namespace {

KernelRecord
record(const std::string &name, OpClass cls, double time_sec,
       double fp32 = 0, double int32 = 0, double mem = 0)
{
    KernelRecord r;
    r.name = name;
    r.opClass = cls;
    r.timeSec = time_sec;
    r.cycles = time_sec * 1.38e9;
    r.fp32Instrs = fp32;
    r.int32Instrs = int32;
    r.memInstrs = mem;
    r.flops = fp32 * 64;
    r.intOps = int32 * 32;
    return r;
}

} // namespace

TEST(Profiler, OpBreakdownIsTimeWeighted)
{
    Profiler p;
    p.onKernel(record("a", OpClass::Gemm, 0.003));
    p.onKernel(record("b", OpClass::ElementWise, 0.001));
    auto breakdown = p.opTimeBreakdown();
    EXPECT_NEAR(breakdown[static_cast<size_t>(OpClass::Gemm)], 0.75,
                1e-9);
    EXPECT_NEAR(breakdown[static_cast<size_t>(OpClass::ElementWise)],
                0.25, 1e-9);
    EXPECT_EQ(p.totalLaunches(), 2);
    EXPECT_DOUBLE_EQ(p.totalKernelTimeSec(), 0.004);
}

TEST(Profiler, InstructionMixNormalised)
{
    Profiler p;
    p.onKernel(record("a", OpClass::Gemm, 1.0, /*fp32=*/600,
                      /*int32=*/300, /*mem=*/100));
    auto mix = p.instructionMix();
    EXPECT_NEAR(mix.fp32Frac, 0.6, 1e-9);
    EXPECT_NEAR(mix.int32Frac, 0.3, 1e-9);
    EXPECT_NEAR(mix.otherFrac, 0.1, 1e-9);
}

TEST(Profiler, ThroughputFromLaneOps)
{
    Profiler p;
    p.onKernel(record("a", OpClass::Gemm, 2.0, /*fp32=*/1e9));
    // 1e9 fma instrs * 64 flops over 2 seconds.
    EXPECT_NEAR(p.gflops(), 32.0, 1e-6);
}

TEST(Profiler, StallBreakdownNormalised)
{
    Profiler p;
    KernelRecord r = record("a", OpClass::Sort, 1.0);
    r.stallCycles[static_cast<size_t>(StallReason::MemoryDependency)] =
        30;
    r.stallCycles[static_cast<size_t>(
        StallReason::ExecutionDependency)] = 10;
    p.onKernel(r);
    StallVector b = p.stallBreakdown();
    EXPECT_NEAR(b[static_cast<size_t>(StallReason::MemoryDependency)],
                0.75, 1e-9);
    EXPECT_NEAR(
        b[static_cast<size_t>(StallReason::ExecutionDependency)], 0.25,
        1e-9);
}

TEST(Profiler, CacheRatesAggregateAcrossKernels)
{
    Profiler p;
    KernelRecord a = record("a", OpClass::Gather, 1.0);
    a.l1Accesses = 100;
    a.l1Hits = 10;
    a.loads = 100;
    a.divergentLoads = 40;
    KernelRecord b = record("b", OpClass::ElementWise, 1.0);
    b.l1Accesses = 100;
    b.l1Hits = 30;
    b.loads = 100;
    b.divergentLoads = 0;
    p.onKernel(a);
    p.onKernel(b);
    EXPECT_NEAR(p.l1HitRate(), 0.2, 1e-9);
    EXPECT_NEAR(p.divergentLoadFraction(), 0.2, 1e-9);
}

TEST(Profiler, TransferSparsityIsByteWeighted)
{
    Profiler p;
    TransferRecord big;
    big.bytes = 3000;
    big.zeroFraction = 1.0;
    TransferRecord small;
    small.bytes = 1000;
    small.zeroFraction = 0.0;
    p.onTransfer(big);
    p.onTransfer(small);
    EXPECT_NEAR(p.avgTransferSparsity(), 0.75, 1e-9);
    EXPECT_DOUBLE_EQ(p.totalTransferBytes(), 4000.0);
}

TEST(Profiler, TimelineStampsIterations)
{
    Profiler p;
    TransferRecord t;
    t.bytes = 10;
    p.onTransfer(t);
    p.beginIteration();
    p.onTransfer(t);
    p.beginIteration();
    p.onTransfer(t);
    const auto &tl = p.sparsityTimeline();
    ASSERT_EQ(tl.size(), 3u);
    EXPECT_EQ(tl[0].iteration, 0);
    EXPECT_EQ(tl[1].iteration, 1);
    EXPECT_EQ(tl[2].iteration, 2);
}

TEST(Profiler, KernelStatsKeyedByName)
{
    Profiler p;
    p.onKernel(record("gemm_64", OpClass::Gemm, 0.001));
    p.onKernel(record("gemm_64", OpClass::Gemm, 0.002));
    p.onKernel(record("relu", OpClass::ElementWise, 0.001));
    const auto &stats = p.kernelStats();
    ASSERT_EQ(stats.size(), 2u);
    EXPECT_EQ(stats.at("gemm_64").launches, 2);
    EXPECT_DOUBLE_EQ(stats.at("gemm_64").timeSec, 0.003);
}

TEST(Profiler, IpcIsCycleWeighted)
{
    Profiler p;
    KernelRecord slow = record("a", OpClass::Gemm, 3.0);
    slow.ipc = 1.0;
    KernelRecord fast = record("b", OpClass::Gemm, 1.0);
    fast.ipc = 2.0;
    p.onKernel(slow);
    p.onKernel(fast);
    // (1.0 * 3 + 2.0 * 1) / 4 cycles-weighted.
    EXPECT_NEAR(p.avgIpc(), 1.25, 1e-9);
}

TEST(OpClassNames, AllDistinct)
{
    std::set<std::string> seen;
    for (OpClass c : allOpClasses())
        EXPECT_TRUE(seen.insert(opClassName(c)).second);
    EXPECT_EQ(seen.size(), kNumOpClasses);
}

TEST(StallNames, AllDistinct)
{
    std::set<std::string> seen;
    for (size_t r = 0; r < kNumStallReasons; ++r) {
        EXPECT_TRUE(
            seen.insert(stallReasonName(static_cast<StallReason>(r)))
                .second);
    }
}

TEST(Profiler, EmptyRunReportsZeroesNotNaN)
{
    const Profiler p;
    EXPECT_EQ(p.totalLaunches(), 0);
    EXPECT_DOUBLE_EQ(p.totalKernelTimeSec(), 0);
    EXPECT_DOUBLE_EQ(p.gflops(), 0);
    EXPECT_DOUBLE_EQ(p.giops(), 0);
    EXPECT_DOUBLE_EQ(p.avgIpc(), 0);
    EXPECT_DOUBLE_EQ(p.l1HitRate(), 0);
    EXPECT_DOUBLE_EQ(p.l2HitRate(), 0);
    EXPECT_DOUBLE_EQ(p.divergentLoadFraction(), 0);
    EXPECT_DOUBLE_EQ(p.avgTransferSparsity(), 0);
    for (double share : p.opTimeBreakdown()) {
        EXPECT_TRUE(std::isfinite(share));
        EXPECT_DOUBLE_EQ(share, 0);
    }
    const auto mix = p.instructionMix();
    EXPECT_TRUE(std::isfinite(mix.fp32Frac));
    EXPECT_TRUE(std::isfinite(mix.int32Frac));
    EXPECT_TRUE(std::isfinite(mix.otherFrac));
    for (double s : p.stallBreakdown())
        EXPECT_TRUE(std::isfinite(s));
}

TEST(Profiler, ZeroTimeKernelsDoNotPoisonAggregates)
{
    Profiler p;
    EXPECT_EQ(p.totalLaunches(), 0);
    EXPECT_TRUE(std::isfinite(p.avgIpc()));
    // A degenerate kernel: zero time, zero cycles, zero instructions.
    p.onKernel(record("noop", OpClass::Other, 0.0));
    p.onKernel(record("real", OpClass::Gemm, 0.001, /*fp32=*/100));
    EXPECT_EQ(p.totalLaunches(), 2);
    EXPECT_TRUE(std::isfinite(p.avgIpc()));
    EXPECT_TRUE(std::isfinite(p.gflops()));
    for (double share : p.opTimeBreakdown())
        EXPECT_TRUE(std::isfinite(share));
    // All measured time belongs to the real kernel.
    EXPECT_DOUBLE_EQ(
        p.opTimeBreakdown()[static_cast<size_t>(OpClass::Gemm)], 1.0);
}
