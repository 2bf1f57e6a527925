/** @file Tests for the NVLink interconnect model. */

#include <gtest/gtest.h>

#include "sim/interconnect.hh"

using namespace gnnmark;

TEST(Interconnect, SingleGpuIsFree)
{
    Interconnect ic;
    EXPECT_EQ(ic.allReduceTime(1e9, 1), 0.0);
    EXPECT_EQ(ic.broadcastTime(1e9, 1), 0.0);
}

TEST(Interconnect, ZeroBytesIsFree)
{
    Interconnect ic;
    EXPECT_EQ(ic.allReduceTime(0, 4), 0.0);
    EXPECT_EQ(ic.broadcastTime(0, 4), 0.0);
}

TEST(Interconnect, AllReduceMonotoneInBytes)
{
    Interconnect ic;
    EXPECT_LT(ic.allReduceTime(1e6, 4), ic.allReduceTime(1e8, 4));
}

TEST(Interconnect, AllReduceRingFormula)
{
    Interconnect ic;
    // Ring bandwidth = 6 links x 25 GB/s / 2 = 75 GB/s; 4 GPUs:
    // 2*(3/4) payload traversals plus 2*(4-1) latency steps.
    double bytes = 75e9;
    EXPECT_NEAR(ic.allReduceTime(bytes, 4), 1.5 + 6 * kMessageLatencySec,
                1e-9);
}

TEST(Interconnect, LatencyTermsDominateSmallMessages)
{
    Interconnect ic;
    double tiny = ic.allReduceTime(64, 4);
    // 6 steps x 5us latency.
    EXPECT_GE(tiny, 6 * 5e-6 * 0.99);
}

TEST(Interconnect, BroadcastLogHops)
{
    Interconnect ic;
    double two = ic.broadcastTime(75e9, 2);
    double four = ic.broadcastTime(75e9, 4);
    // One hop per doubling, each a payload pass plus one latency.
    EXPECT_NEAR(two, 1.0 + kMessageLatencySec, 1e-9);
    EXPECT_NEAR(four / two, 2.0, 1e-9);
}

TEST(Interconnect, MoreGpusCostMoreLatencySteps)
{
    Interconnect ic;
    double bytes = 1e4; // latency-dominated
    EXPECT_LT(ic.allReduceTime(bytes, 2), ic.allReduceTime(bytes, 4));
}
