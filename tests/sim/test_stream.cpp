/** @file Stream/event timing model: SimStream scheduling semantics,
 *  IterationTimeline wall-clock mapping, and TimelineCollector's
 *  phase-mark segmentation of a kernel stream. */

#include <gtest/gtest.h>

#include "sim/stream.hh"

using namespace gnnmark;

namespace {

KernelRecord
kernel(double time_sec)
{
    KernelRecord r;
    r.name = "k";
    r.timeSec = time_sec;
    return r;
}

TransferRecord
transfer(double time_sec)
{
    TransferRecord r;
    r.tag = "t";
    r.timeSec = time_sec;
    return r;
}

} // namespace

TEST(SimStream, OpsRunBackToBack)
{
    SimStream s("comm");
    const StreamOp &a = s.enqueue("a", 0.0, 2.0);
    EXPECT_EQ(a.startSec, 0.0);
    EXPECT_EQ(a.endSec, 2.0);
    // Ready at t=1 but the stream is busy until t=2.
    const StreamOp &b = s.enqueue("b", 1.0, 3.0);
    EXPECT_EQ(b.startSec, 2.0);
    EXPECT_EQ(b.endSec, 5.0);
    EXPECT_EQ(s.cursorSec(), 5.0);
}

TEST(SimStream, ReadyTimeDelaysStart)
{
    SimStream s;
    s.enqueue("a", 0.0, 1.0);
    const StreamOp &late = s.enqueue("late", 10.0, 1.0);
    EXPECT_EQ(late.startSec, 10.0);
    EXPECT_EQ(late.endSec, 11.0);
}

TEST(IterationTimeline, WallClockMapsTransferPrologueAndKernels)
{
    IterationTimeline t;
    t.kernelSec = 10.0;
    t.transferSec = 2.0;
    t.kernelCount = 10;
    t.launchOverheadSec = 0.1; // dispatch 1.0 < kernel 10.0
    EXPECT_DOUBLE_EQ(t.wallSec(), 12.0);
    EXPECT_DOUBLE_EQ(t.wallAtKernelTime(0.0), 2.0);
    EXPECT_DOUBLE_EQ(t.wallAtKernelTime(5.0), 7.0);
    EXPECT_DOUBLE_EQ(t.wallAtKernelTime(10.0), 12.0);
    // Clamped at both ends.
    EXPECT_DOUBLE_EQ(t.wallAtKernelTime(-1.0), 2.0);
    EXPECT_DOUBLE_EQ(t.wallAtKernelTime(99.0), 12.0);
}

TEST(IterationTimeline, DispatchBoundStreamStretchesKernelTime)
{
    IterationTimeline t;
    t.kernelSec = 1.0;
    t.kernelCount = 1000;
    t.launchOverheadSec = 4e-3; // dispatch window 4.0 paces the stream
    EXPECT_DOUBLE_EQ(t.wallSec(), 4.0);
    // Cumulative kernel time is spread uniformly over the window.
    EXPECT_DOUBLE_EQ(t.wallAtKernelTime(0.5), 2.0);
    EXPECT_DOUBLE_EQ(t.wallAtKernelTime(1.0), 4.0);
}

TEST(IterationTimeline, BucketReadinessFollowsBackwardKernelOrder)
{
    IterationTimeline t;
    t.kernelSec = 8.0;
    t.kernelCount = 8;
    t.launchOverheadSec = 0;
    t.backwardBeginKernelSec = 4.0;
    t.backwardEndKernelSec = 8.0;
    t.backwardKernelEnds = {5.0, 6.0, 7.0, 8.0};
    // 2 buckets over 4 backward kernels: ready after kernels 2 and 4.
    EXPECT_DOUBLE_EQ(t.bucketReadySec(0, 2), 6.0);
    EXPECT_DOUBLE_EQ(t.bucketReadySec(1, 2), 8.0);
    // More buckets than kernels: indexes collapse onto kernel ends,
    // monotonically non-decreasing, last bucket at backward end.
    double prev = 0;
    for (int i = 0; i < 8; ++i) {
        const double ready = t.bucketReadySec(i, 8);
        EXPECT_GE(ready, prev);
        prev = ready;
    }
    EXPECT_DOUBLE_EQ(t.bucketReadySec(7, 8), 8.0);
}

TEST(IterationTimeline, NoBackwardWindowFallsBackToStreamEnd)
{
    IterationTimeline t;
    t.kernelSec = 3.0;
    t.kernelCount = 3;
    EXPECT_FALSE(t.hasBackward());
    EXPECT_DOUBLE_EQ(t.bucketReadySec(0, 4), 3.0);
    EXPECT_DOUBLE_EQ(t.bucketReadySec(3, 4), 3.0);
}

TEST(TimelineCollector, IgnoresWarmupBeforeFirstIterationMark)
{
    TimelineCollector c(1e-6);
    c.onKernel(kernel(1.0));
    c.onTransfer(transfer(0.5));
    EXPECT_TRUE(c.iterations().empty());
    c.onPhase(PhaseMark::IterationBegin);
    c.onKernel(kernel(2.0));
    ASSERT_EQ(c.iterations().size(), 1u);
    EXPECT_DOUBLE_EQ(c.iterations()[0].kernelSec, 2.0);
    EXPECT_EQ(c.iterations()[0].kernelCount, 1);
}

TEST(TimelineCollector, SegmentsIterationsAndBackwardWindows)
{
    TimelineCollector c(1e-6);
    for (int iter = 0; iter < 2; ++iter) {
        c.onPhase(PhaseMark::IterationBegin);
        c.onTransfer(transfer(0.25));
        c.onKernel(kernel(1.0)); // forward
        c.onPhase(PhaseMark::BackwardBegin);
        c.onKernel(kernel(0.5));
        c.onKernel(kernel(0.5));
        c.onPhase(PhaseMark::BackwardEnd);
        c.onKernel(kernel(0.1)); // optimizer
    }
    ASSERT_EQ(c.iterations().size(), 2u);
    for (const IterationTimeline &t : c.iterations()) {
        EXPECT_TRUE(t.hasBackward());
        EXPECT_DOUBLE_EQ(t.transferSec, 0.25);
        EXPECT_DOUBLE_EQ(t.kernelSec, 2.1);
        EXPECT_DOUBLE_EQ(t.backwardBeginKernelSec, 1.0);
        EXPECT_DOUBLE_EQ(t.backwardEndKernelSec, 2.0);
        ASSERT_EQ(t.backwardKernelEnds.size(), 2u);
        EXPECT_DOUBLE_EQ(t.backwardKernelEnds[0], 1.5);
        EXPECT_DOUBLE_EQ(t.backwardKernelEnds[1], 2.0);
    }
}

TEST(TimelineCollector, MultipleBackwardSegmentsAccumulate)
{
    // ARGA runs backward twice per iteration: the window spans from
    // the first begin to the last end, and every gradient kernel
    // lands in backwardKernelEnds.
    TimelineCollector c(1e-6);
    c.onPhase(PhaseMark::IterationBegin);
    c.onKernel(kernel(1.0));
    c.onPhase(PhaseMark::BackwardBegin);
    c.onKernel(kernel(0.5));
    c.onPhase(PhaseMark::BackwardEnd);
    c.onKernel(kernel(0.2)); // between-backward compute
    c.onPhase(PhaseMark::BackwardBegin);
    c.onKernel(kernel(0.3));
    c.onPhase(PhaseMark::BackwardEnd);
    ASSERT_EQ(c.iterations().size(), 1u);
    const IterationTimeline &t = c.iterations()[0];
    EXPECT_TRUE(t.hasBackward());
    EXPECT_DOUBLE_EQ(t.backwardBeginKernelSec, 1.0);
    EXPECT_DOUBLE_EQ(t.backwardEndKernelSec, 2.0);
    ASSERT_EQ(t.backwardKernelEnds.size(), 2u);
    EXPECT_DOUBLE_EQ(t.backwardKernelEnds[0], 1.5);
    EXPECT_DOUBLE_EQ(t.backwardKernelEnds[1], 2.0);
}
