/** @file DDP strong-scaling simulation tests (paper Fig. 9 shapes). */

#include <gtest/gtest.h>

#include <algorithm>

#include "core/suite.hh"
#include "multigpu/ddp.hh"

using namespace gnnmark;

namespace {

WorkloadConfig
benchConfig()
{
    // Strong scaling needs the full-size datasets: at tiny scales
    // every workload is dispatch-bound and nothing scales (which is
    // itself the TLSTM story, but not the DGCN/STGCN/GW one).
    WorkloadConfig cfg;
    cfg.seed = 5;
    cfg.scale = 1.0;
    return cfg;
}

std::vector<ScalingResult>
curve(const std::string &name)
{
    auto wl = BenchmarkSuite::create(name);
    DdpTrainer trainer;
    return trainer.scalingCurve(*wl, benchConfig(), {1, 2, 4},
                                /*measured_iterations=*/2);
}

} // namespace

TEST(Ddp, SingleGpuBaseline)
{
    auto wl = BenchmarkSuite::create("DGCN");
    DdpTrainer trainer;
    ScalingResult r = trainer.measure(*wl, benchConfig(), 1, 2);
    EXPECT_EQ(r.commTimeSec, 0);
    EXPECT_GT(r.epochTimeSec, 0);
    EXPECT_DOUBLE_EQ(r.epochTimeSec, r.computeTimeSec);
}

TEST(Ddp, MultiGpuPaysCommunication)
{
    auto wl = BenchmarkSuite::create("DGCN");
    DdpTrainer trainer;
    ScalingResult r = trainer.measure(*wl, benchConfig(), 4, 2);
    EXPECT_GT(r.commTimeSec, 0);
}

TEST(Ddp, ComputeBoundWorkloadsScale)
{
    // DGCN, STGCN and GW benefit from multi-GPU training (Fig. 9).
    // GW's bar is lower: at reproduction scale its sequential LSTM
    // decoder is latency-bound (1-block kernels do not shrink when
    // the batch shards), muting the speedup relative to the paper's
    // full-size model; see EXPERIMENTS.md.
    for (const char *name : {"DGCN", "STGCN"}) {
        auto points = curve(name);
        ASSERT_EQ(points.size(), 3u);
        EXPECT_GT(points[2].speedup, 1.3) << name << " at 4 GPUs";
        EXPECT_GE(points[1].speedup, 1.0) << name << " at 2 GPUs";
    }
    auto gw = curve("GW");
    EXPECT_GT(gw[2].speedup, 1.15) << "GW at 4 GPUs";
}

TEST(Ddp, PinSageDegradesWithReplication)
{
    auto points = curve("PSAGE-MVL");
    // The DDP-incompatible sampler replicates work: 4 GPUs are slower
    // than 1 (the paper's Fig. 9 pathology).
    EXPECT_LT(points[2].speedup, 1.0);
    EXPECT_LT(points[2].speedup, points[1].speedup + 0.2);
}

TEST(Ddp, TreeLstmBarelyScales)
{
    auto points = curve("TLSTM");
    // Low arithmetic intensity: far from linear scaling.
    EXPECT_LT(points[2].speedup, 2.5);
}

TEST(Ddp, SpeedupRelativeToOneGpu)
{
    auto points = curve("DGCN");
    EXPECT_NEAR(points[0].speedup, 1.0, 1e-9);
}

TEST(Ddp, ScalingCurveWithoutSingleGpuPoint)
{
    // Regression: with no world_size == 1 entry the old code never set
    // base_time and reported speedup == 0 for every point. The fallback
    // extrapolates the single-GPU time from the first measured point
    // assuming linear scaling, so that point's speedup is exactly its
    // world size.
    auto wl = BenchmarkSuite::create("DGCN");
    DdpTrainer trainer;
    auto points = trainer.scalingCurve(*wl, benchConfig(), {2, 4}, 2);
    ASSERT_EQ(points.size(), 2u);
    EXPECT_NEAR(points[0].speedup, 2.0, 1e-9);
    EXPECT_GT(points[1].speedup, 0.0);
}

TEST(Ddp, WeakScalingCurveWithoutSingleGpuPoint)
{
    // Same regression for the weak-scaling curve: per-GPU work is
    // constant, so the first measured point is its own reference and
    // gets efficiency exactly 1.
    auto wl = BenchmarkSuite::create("DGCN");
    DdpTrainer trainer;
    auto points =
        trainer.weakScalingCurve(*wl, benchConfig(), {2, 4}, 2);
    ASSERT_EQ(points.size(), 2u);
    EXPECT_NEAR(points[0].speedup, 1.0, 1e-9);
    EXPECT_GT(points[1].speedup, 0.0);
}

TEST(DdpDeath, InvalidWorldPanics)
{
    auto wl = BenchmarkSuite::create("DGCN");
    DdpTrainer trainer;
    EXPECT_DEATH(trainer.measure(*wl, benchConfig(), 0, 1),
                 "world size");
}

TEST(Ddp, SingleGpuPinSagePaysNoReplication)
{
    // The replication penalty for DDP-incompatible samplers only
    // exists when there are peers to replicate for.
    auto wl = BenchmarkSuite::create("PSAGE-MVL");
    ASSERT_FALSE(wl->samplerDdpCompatible());
    DdpTrainer trainer;
    ScalingResult r = trainer.measure(*wl, benchConfig(), 1, 2);
    EXPECT_EQ(r.commTimeSec, 0);
    EXPECT_DOUBLE_EQ(r.epochTimeSec, r.computeTimeSec);
}

TEST(Ddp, ReplicationPathExceedsAllReduceLowerBound)
{
    // For a DDP-incompatible sampler the per-iteration comm must carry
    // strictly more than the pure gradient all-reduce, because every
    // peer re-pulls the full input batch.
    auto wl = BenchmarkSuite::create("PSAGE-MVL");
    DdpTrainer trainer;
    const int world = 4;
    ScalingResult r = trainer.measure(*wl, benchConfig(), world, 2);

    Interconnect link{InterconnectConfig{}};
    const double all_reduce_floor =
        link.allReduceTime(wl->parameterBytes(), world);
    const double iters =
        static_cast<double>(wl->iterationsPerEpoch());
    EXPECT_GT(r.commTimeSec, all_reduce_floor * iters);
}

TEST(Ddp, DegradedLinkSlowsCollectives)
{
    // One ring hop at a quarter of its bandwidth for the whole run.
    auto wl = BenchmarkSuite::create("DGCN");
    FaultEvent slow;
    slow.kind = FaultKind::DegradedLink;
    slow.magnitude = 0.25;
    FaultRecoveryOptions opt;
    opt.iterations = 2;
    opt.checkpointInterval = 0;
    DdpTrainer trainer;

    FaultToleranceResult d = trainer.runWithFaults(
        *wl, benchConfig(), 4, FaultPlan({slow}), opt);
    ASSERT_EQ(d.events.size(), 1u);
    EXPECT_GT(d.events[0].slowdownSec, 0);
    EXPECT_EQ(d.events[0].worldAfter, 4);
    EXPECT_EQ(d.executedIterations, opt.iterations);
    // The drag is all of the overhead: compute is untouched by the
    // link (small jitter from the cache model aside).
    EXPECT_NEAR(d.totalTimeSec - d.idealTimeSec,
                d.events[0].slowdownSec, 0.03 * d.idealTimeSec);

    // A degraded hop gates the ring but not single-GPU training.
    FaultToleranceResult solo = trainer.runWithFaults(
        *wl, benchConfig(), 1, FaultPlan({slow}), opt);
    EXPECT_TRUE(solo.events.empty());
    EXPECT_NEAR(solo.totalTimeSec, solo.idealTimeSec,
                0.03 * solo.idealTimeSec);
}

// ---------------------------------------------------------------------
// Bucketed all-reduce cost helpers (shared by every pricing path).

TEST(DdpBuckets, CountEdgesAtBucketBoundaries)
{
    const double B = ddp::kBucketBytes;
    // Exact multiples of the bucket size must not spill an extra
    // (empty) bucket through the double->int truncation.
    EXPECT_EQ(ddp::bucketCount(B), 1);
    EXPECT_EQ(ddp::bucketCount(2 * B), 2);
    EXPECT_EQ(ddp::bucketCount(7 * B), 7);
    // One byte past a boundary opens the next bucket.
    EXPECT_EQ(ddp::bucketCount(B + 1), 2);
    EXPECT_EQ(ddp::bucketCount(2 * B + 1), 3);
    // Degenerate sizes still occupy one bucket.
    EXPECT_EQ(ddp::bucketCount(0), 1);
    EXPECT_EQ(ddp::bucketCount(1), 1);
    EXPECT_EQ(ddp::bucketCount(B - 1), 1);
}

TEST(DdpBuckets, OverlapSizesCoverBytesWithinBounds)
{
    // Large gradients split to the 25 MB PyTorch cap.
    {
        auto sizes = ddp::overlapBucketSizes(100.0 * ddp::kBucketBytes);
        double sum = 0;
        for (double s : sizes) {
            EXPECT_LE(s, ddp::kBucketBytes * (1 + 1e-12));
            sum += s;
        }
        EXPECT_NEAR(sum, 100.0 * ddp::kBucketBytes, 1.0);
    }
    // Small gradients respect the minimum bucket granularity.
    {
        auto sizes = ddp::overlapBucketSizes(32.0 * 1024);
        EXPECT_EQ(sizes.size(), 2u);
        for (double s : sizes)
            EXPECT_GE(s, ddp::kMinBucketBytes * 0.5);
    }
    EXPECT_TRUE(ddp::overlapBucketSizes(0).empty());
}

// ---------------------------------------------------------------------
// Overlap model invariants.

namespace {

IterationTimeline
syntheticTimeline()
{
    IterationTimeline t;
    t.kernelSec = 10e-3;
    t.transferSec = 1e-3;
    t.kernelCount = 100;
    t.launchOverheadSec = 1e-6;
    t.backwardBeginKernelSec = 4e-3;
    t.backwardEndKernelSec = 10e-3;
    for (int i = 1; i <= 60; ++i)
        t.backwardKernelEnds.push_back(4e-3 + i * 0.1e-3);
    return t;
}

} // namespace

TEST(DdpOverlap, ExposedNeverExceedsTotal)
{
    Interconnect link{InterconnectConfig{}};
    const IterationTimeline t = syntheticTimeline();
    for (double bytes : {16e3, 1e6, 20e6, 200e6}) {
        for (int world : {2, 4, 8}) {
            ddp::CommCost c =
                ddp::overlapCommCost(link, bytes, world, t);
            EXPECT_LE(c.exposedSec, c.totalSec + 1e-15)
                << bytes << " bytes on " << world << " GPUs";
            EXPECT_GE(c.exposedSec, ddp::kDdpOverheadSec);
        }
    }
}

TEST(DdpOverlap, WorldOneIsFree)
{
    Interconnect link{InterconnectConfig{}};
    ddp::CommCost c =
        ddp::overlapCommCost(link, 20e6, 1, syntheticTimeline());
    EXPECT_EQ(c.totalSec, 0);
    EXPECT_EQ(c.exposedSec, 0);
}

TEST(DdpOverlap, EarlyBucketsHideBehindBackward)
{
    // 64 KB splits into four 16 KB buckets; the first three become
    // ready while backward is still running and hide entirely. The
    // final bucket is only ready at backward end, so exposure is
    // exactly its drain cost plus the fixed host-side bookkeeping.
    Interconnect link{InterconnectConfig{}};
    const int world = 2;
    const double bytes = 64.0 * 1024;
    ddp::CommCost c =
        ddp::overlapCommCost(link, bytes, world, syntheticTimeline());
    EXPECT_LT(c.exposedSec, c.totalSec);

    const double lat = kMessageLatencySec;
    const double steps = 2.0 * (world - 1);
    const double last_bucket =
        std::max(0.0, link.allReduceTime(bytes / 4, world) -
                          steps * lat) +
        lat;
    // NEAR, not DOUBLE_EQ: exposure subtracts two ~10 ms wall-clock
    // points, so a few ULPs of cancellation noise are expected.
    EXPECT_NEAR(c.exposedSec, last_bucket + ddp::kDdpOverheadSec,
                1e-12);
}

TEST(DdpOverlap, NoBackwardWindowIsFullyExposed)
{
    // Inference-style timeline: buckets only become ready at stream
    // end, so nothing hides and exposed == total.
    IterationTimeline t;
    t.kernelSec = 5e-3;
    t.kernelCount = 50;
    t.launchOverheadSec = 1e-6;
    Interconnect link{InterconnectConfig{}};
    ddp::CommCost c = ddp::overlapCommCost(link, 20e6, 4, t);
    EXPECT_DOUBLE_EQ(c.exposedSec, c.totalSec);
}

namespace {

/** 32 KiB of gradients: two 16 KiB overlap buckets. */
constexpr double kTwoBuckets = 32.0 * 1024;

/**
 * A two-backward-kernel timeline whose wall clock is its kernel clock
 * (no transfers, no dispatch cost): the two gradient buckets of
 * kTwoBuckets become ready exactly at `first_ready` and `second_ready`,
 * and backward ends at the second.
 */
IterationTimeline
twoBucketTimeline(double first_ready, double second_ready)
{
    IterationTimeline t;
    t.kernelSec = second_ready;
    t.kernelCount = 2;
    t.backwardBeginKernelSec = 0;
    t.backwardEndKernelSec = second_ready;
    t.backwardKernelEnds = {first_ready, second_ready};
    return t;
}

/** Bucket `i`'s drain time on the comm stream, priced as in ddp.cc. */
double
bucketCost(const Interconnect &link, int world, int i)
{
    const double lat = kMessageLatencySec;
    const double steps = 2.0 * (static_cast<double>(world) - 1.0);
    double cost = std::max(
        0.0, link.allReduceTime(kTwoBuckets / 2, world) - steps * lat);
    cost += lat;
    if (i == 0)
        cost += steps * lat;
    return cost;
}

} // namespace

TEST(DdpOverlap, BusyStreamRunsBucketsBackToBack)
{
    // The second bucket is ready 1 us after the first, while the first
    // is still draining, so it starts when the first one ends.
    Interconnect link{InterconnectConfig{}};
    const int world = 2;
    ASSERT_EQ(ddp::overlapBucketSizes(kTwoBuckets).size(), 2u);
    const double end0 = 1e-3 + bucketCost(link, world, 0);
    ASSERT_GT(end0, 1.001e-3);
    const double end1 = end0 + bucketCost(link, world, 1);

    const ddp::CommCost c = ddp::overlapCommCost(
        link, kTwoBuckets, world, twoBucketTimeline(1e-3, 1.001e-3));
    EXPECT_EQ(c.totalSec,
              (end0 - 1e-3) + (end1 - end0) + ddp::kDdpOverheadSec);
    EXPECT_EQ(c.exposedSec, (end1 - 1.001e-3) + ddp::kDdpOverheadSec);
}

TEST(DdpOverlap, ReadyTimeDelaysBucketStart)
{
    // The second bucket is ready long after the first has drained, so
    // the idle stream starts it at its ready time.
    Interconnect link{InterconnectConfig{}};
    const int world = 2;
    const double end0 = 1e-3 + bucketCost(link, world, 0);
    ASSERT_LT(end0, 2e-3);
    const double end1 = 2e-3 + bucketCost(link, world, 1);

    const ddp::CommCost c = ddp::overlapCommCost(
        link, kTwoBuckets, world, twoBucketTimeline(1e-3, 2e-3));
    EXPECT_EQ(c.totalSec,
              (end0 - 1e-3) + (end1 - 2e-3) + ddp::kDdpOverheadSec);
    EXPECT_EQ(c.exposedSec, (end1 - 2e-3) + ddp::kDdpOverheadSec);
}

TEST(DdpOverlap, MeasuredExposureStaysBounded)
{
    auto wl = BenchmarkSuite::create("DGCN");
    DdpTrainer trainer;
    for (int world : {2, 4}) {
        ScalingResult r = trainer.measure(*wl, benchConfig(), world, 2);
        EXPECT_GT(r.commTimeSec, 0);
        EXPECT_LE(r.commExposedSec, r.commTimeSec * (1 + 1e-12));
        EXPECT_DOUBLE_EQ(r.epochTimeSec,
                         r.computeTimeSec + r.commExposedSec);
        EXPECT_GE(r.overlapFrac, 0.0);
        EXPECT_LT(r.overlapFrac, 1.0);
    }
}

TEST(DdpOverlap, OverlapOffReproducesLegacyModelBitwise)
{
    // The sync path must keep the historical cost expression exactly:
    // allReduceTime + bucketCount * messageLatency + fixed overhead,
    // fully serialized after compute.
    DdpOptions off;
    off.overlapComm = false;
    auto wl = BenchmarkSuite::create("DGCN");
    DdpTrainer trainer(off);
    const int world = 4;
    ScalingResult r = trainer.measure(*wl, benchConfig(), world, 2);

    Interconnect link{InterconnectConfig{}};
    const double bytes = wl->parameterBytes();
    const double legacy_iter =
        link.allReduceTime(bytes, world) +
        ddp::bucketCount(bytes) * kMessageLatencySec +
        ddp::kDdpOverheadSec;
    const double iters =
        static_cast<double>(wl->iterationsPerEpoch());
    EXPECT_EQ(r.commTimeSec, legacy_iter * iters);
    EXPECT_EQ(r.commExposedSec, r.commTimeSec);
    EXPECT_EQ(r.epochTimeSec, r.computeTimeSec + r.commTimeSec);
    EXPECT_EQ(r.overlapFrac, 0.0);
}

TEST(DdpOverlap, StrictlyFasterThanSyncForCompatibleWorkloads)
{
    // Holding one measured run's compute fixed, the overlapped epoch
    // must be strictly cheaper than what the synchronous model would
    // charge for the same point. (Comparing two separate measured runs
    // would confound this with the host-address-sensitive cache
    // model's jitter.)
    Interconnect link{InterconnectConfig{}};
    for (const char *name : {"DGCN", "STGCN", "GW"}) {
        auto wl = BenchmarkSuite::create(name);
        ASSERT_TRUE(wl->samplerDdpCompatible()) << name;
        DdpTrainer trainer;
        ScalingResult on = trainer.measure(*wl, benchConfig(), 4, 2);
        const double sync_epoch =
            on.computeTimeSec +
            ddp::syncCommCost(link, wl->parameterBytes(), 4) *
                static_cast<double>(wl->iterationsPerEpoch());
        EXPECT_LT(on.epochTimeSec, sync_epoch) << name;
        EXPECT_GT(on.overlapFrac, 0.0) << name;
    }
}

TEST(DdpOverlap, WeakScalingChargesReplicationPenalty)
{
    // Regression: measureWeak() used to skip the replicated-input
    // penalty that measure() charges for DDP-incompatible samplers,
    // silently flattering PinSAGE's weak-scaling efficiency. With the
    // shared implementation the weak-mode comm must now exceed the
    // pure bucketed all-reduce.
    DdpOptions off;
    off.overlapComm = false;
    auto wl = BenchmarkSuite::create("PSAGE-MVL");
    ASSERT_FALSE(wl->samplerDdpCompatible());
    DdpTrainer trainer(off);
    const int world = 4;
    ScalingResult r = trainer.measureWeak(*wl, benchConfig(), world, 2);

    Interconnect link{InterconnectConfig{}};
    const double sync_only =
        ddp::syncCommCost(link, wl->parameterBytes(), world) *
        static_cast<double>(wl->iterationsPerEpoch());
    EXPECT_GT(r.commTimeSec, sync_only);
}

TEST(DdpOverlap, ScalingFromTimelinesInvariants)
{
    Interconnect link{InterconnectConfig{}};
    std::vector<IterationTimeline> timelines = {syntheticTimeline(),
                                                syntheticTimeline()};
    const double epoch_compute = 1.0;
    const double iters = 100;
    const double bytes = 20e6;

    auto curve = ddp::scalingFromTimelines(
        link, timelines, epoch_compute, iters, bytes,
        /*sampler_ddp_compatible=*/true, {1, 2, 4}, DdpOptions{});
    ASSERT_EQ(curve.size(), 3u);
    EXPECT_EQ(curve[0].commTimeSec, 0);
    EXPECT_NEAR(curve[0].speedup, 1.0, 1e-12);
    for (const ScalingResult &r : curve) {
        EXPECT_LE(r.commExposedSec, r.commTimeSec * (1 + 1e-12));
        EXPECT_DOUBLE_EQ(r.epochTimeSec,
                         r.computeTimeSec + r.commExposedSec);
        EXPECT_EQ(r.computeTimeSec, epoch_compute);
    }

    // The overlap toggle touches only the comm model: the sync curve
    // keeps the compute, exposes every byte, and is never faster.
    DdpOptions off;
    off.overlapComm = false;
    auto sync = ddp::scalingFromTimelines(
        link, timelines, epoch_compute, iters, bytes,
        /*sampler_ddp_compatible=*/true, {1, 2, 4}, off);
    ASSERT_EQ(sync.size(), curve.size());
    for (size_t i = 0; i < sync.size(); ++i) {
        EXPECT_EQ(sync[i].computeTimeSec, curve[i].computeTimeSec);
        EXPECT_EQ(sync[i].commExposedSec, sync[i].commTimeSec);
        EXPECT_EQ(sync[i].overlapFrac, 0.0);
        EXPECT_LE(curve[i].epochTimeSec,
                  sync[i].epochTimeSec * (1 + 1e-12));
    }

    // An incompatible sampler pays the replication penalty on top.
    auto degraded = ddp::scalingFromTimelines(
        link, timelines, epoch_compute, iters, bytes,
        /*sampler_ddp_compatible=*/false, {1, 2, 4}, DdpOptions{});
    EXPECT_GT(degraded[2].commTimeSec, curve[2].commTimeSec);
    EXPECT_GT(degraded[2].commExposedSec, curve[2].commExposedSec);
}
