/** @file Elastic fault-recovery tests: timeout detection, world
 *  shrink, checkpoint rollback and deterministic accounting. */

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "core/suite.hh"
#include "multigpu/ddp.hh"

using namespace gnnmark;

namespace {

WorkloadConfig
smallConfig()
{
    WorkloadConfig cfg;
    cfg.seed = 5;
    cfg.scale = 0.25;
    return cfg;
}

FaultRecoveryOptions
quickOptions()
{
    FaultRecoveryOptions opt;
    opt.iterations = 12;
    opt.checkpointInterval = 4;
    return opt;
}

/**
 * The device's cache model keys on real host allocation addresses, so
 * re-setup() runs carry sub-0.1%% wall-time jitter; structural results
 * (events, iteration counts, detection/re-shard costs) are exact.
 */
void
expectClose(double a, double b, double rel = 1e-2)
{
    EXPECT_NEAR(a, b, rel * std::max(std::abs(a), std::abs(b)));
}

FaultEvent
crashAt(double t, int replica)
{
    FaultEvent e;
    e.kind = FaultKind::ReplicaCrash;
    e.timeSec = t;
    e.replica = replica;
    return e;
}

} // namespace

TEST(FaultRecovery, FaultFreeRunMatchesIdeal)
{
    auto wl = BenchmarkSuite::create("KGNNL");
    DdpTrainer trainer;
    FaultRecoveryOptions opt = quickOptions();
    opt.checkpointInterval = 0; // no periodic writes either
    FaultToleranceResult r = trainer.runWithFaults(
        *wl, smallConfig(), 2, FaultPlan{}, opt);

    EXPECT_EQ(r.worldStart, 2);
    EXPECT_EQ(r.worldEnd, 2);
    EXPECT_EQ(r.executedIterations, opt.iterations);
    EXPECT_EQ(r.replayedIterations, 0);
    EXPECT_TRUE(r.events.empty());
    EXPECT_EQ(r.checkpointTimeSec, 0);
    EXPECT_EQ(r.recoveryTimeSec, 0);
    expectClose(r.totalTimeSec, r.idealTimeSec);
    expectClose(r.goodput, 1.0);
}

TEST(FaultRecovery, CrashShrinksWorldAndCompletes)
{
    auto wl = BenchmarkSuite::create("STGCN");
    DdpTrainer trainer;
    // Crash one of four replicas immediately: detected after the
    // first iteration's all-reduce.
    FaultPlan plan({crashAt(0.0, 3)});
    FaultToleranceResult r = trainer.runWithFaults(
        *wl, smallConfig(), 4, plan, quickOptions());

    EXPECT_EQ(r.worldStart, 4);
    EXPECT_EQ(r.worldEnd, 3);
    ASSERT_EQ(r.events.size(), 1u);
    const FaultRecord &e = r.events[0];
    EXPECT_EQ(e.kind, FaultKind::ReplicaCrash);
    EXPECT_EQ(e.replica, 3);
    EXPECT_EQ(e.worldBefore, 4);
    EXPECT_EQ(e.worldAfter, 3);
    EXPECT_GT(e.detectionSec, 0);
    EXPECT_GT(e.reshardSec, 0);

    // The run still completes every target iteration on the
    // shrunken world, and pays for the recovery.
    EXPECT_EQ(r.targetIterations, quickOptions().iterations);
    EXPECT_GE(r.executedIterations, r.targetIterations);
    EXPECT_GT(r.recoveryTimeSec, 0);
    EXPECT_GT(r.totalTimeSec, r.idealTimeSec);
    EXPECT_LT(r.goodput, 1.0);
    EXPECT_GT(r.goodput, 0.0);
}

TEST(FaultRecovery, DetectionFollowsTimeoutAndBackoff)
{
    auto wl = BenchmarkSuite::create("KGNNL");
    DdpTrainer trainer;
    FaultToleranceResult r = trainer.runWithFaults(
        *wl, smallConfig(), 2, FaultPlan({crashAt(0.0, 1)}),
        quickOptions());

    ASSERT_EQ(r.events.size(), 1u);
    // timeout + kMaxRetries retries of (backoff*2^k + timeout):
    // 30 + (10+30) + (20+30) = 120 ms.
    EXPECT_NEAR(r.events[0].detectionSec, 120e-3, 1e-12);
}

TEST(FaultRecovery, RollbackReplaysFromLastCheckpoint)
{
    auto wl = BenchmarkSuite::create("KGNNL");
    DdpTrainer trainer;

    // Late crash, so several iterations sit past the last checkpoint.
    FaultRecoveryOptions opt = quickOptions();
    FaultToleranceResult probe = trainer.runWithFaults(
        *wl, smallConfig(), 2, FaultPlan{}, opt);
    const double late = 0.9 * probe.idealTimeSec;

    FaultToleranceResult r = trainer.runWithFaults(
        *wl, smallConfig(), 2, FaultPlan({crashAt(late, 1)}), opt);
    ASSERT_EQ(r.events.size(), 1u);
    EXPECT_LT(r.events[0].lostIterations, opt.checkpointInterval);
    EXPECT_EQ(r.replayedIterations, r.events[0].lostIterations);
    EXPECT_EQ(r.executedIterations,
              opt.iterations + r.replayedIterations + 1);
    EXPECT_EQ(r.worldEnd, 1); // survivor finishes solo

    // Without checkpoints the same crash replays the whole prefix.
    FaultRecoveryOptions none = opt;
    none.checkpointInterval = 0;
    FaultToleranceResult r0 = trainer.runWithFaults(
        *wl, smallConfig(), 2, FaultPlan({crashAt(late, 1)}), none);
    ASSERT_EQ(r0.events.size(), 1u);
    EXPECT_GT(r0.replayedIterations, 0);
    EXPECT_GE(r0.replayedIterations, r.replayedIterations);
}

TEST(FaultRecovery, DeterministicAcrossRuns)
{
    FaultPlan plan({crashAt(1e-3, 0)});
    auto run = [&]() {
        auto wl = BenchmarkSuite::create("STGCN");
        DdpTrainer trainer;
        return trainer.runWithFaults(*wl, smallConfig(), 4, plan,
                                     quickOptions());
    };
    FaultToleranceResult a = run();
    FaultToleranceResult b = run();
    expectClose(a.totalTimeSec, b.totalTimeSec);
    expectClose(a.goodput, b.goodput);
    EXPECT_EQ(a.worldEnd, b.worldEnd);
    EXPECT_EQ(a.executedIterations, b.executedIterations);
    EXPECT_EQ(a.replayedIterations, b.replayedIterations);
    ASSERT_EQ(a.events.size(), b.events.size());
    for (size_t i = 0; i < a.events.size(); ++i) {
        // Detection/rollback/re-shard derive from the options and the
        // checkpoint image size, not from sampled kernel times: exact.
        EXPECT_EQ(a.events[i].kind, b.events[i].kind);
        EXPECT_DOUBLE_EQ(a.events[i].detectionSec,
                         b.events[i].detectionSec);
        EXPECT_DOUBLE_EQ(a.events[i].rollbackSec,
                         b.events[i].rollbackSec);
        EXPECT_DOUBLE_EQ(a.events[i].reshardSec,
                         b.events[i].reshardSec);
        EXPECT_EQ(a.events[i].lostIterations,
                  b.events[i].lostIterations);
    }
}

TEST(FaultRecovery, StragglerDragsWithoutShrinking)
{
    auto wl = BenchmarkSuite::create("KGNNL");
    DdpTrainer trainer;
    FaultEvent slow;
    slow.kind = FaultKind::Straggler;
    slow.timeSec = 0;
    slow.durationSec = 0; // permanent
    slow.replica = 1;
    slow.magnitude = 3.0;
    FaultToleranceResult r = trainer.runWithFaults(
        *wl, smallConfig(), 2, FaultPlan({slow}), quickOptions());

    EXPECT_EQ(r.worldEnd, 2);
    ASSERT_EQ(r.events.size(), 1u);
    EXPECT_EQ(r.events[0].kind, FaultKind::Straggler);
    EXPECT_GT(r.events[0].slowdownSec, 0);
    EXPECT_GT(r.totalTimeSec, r.idealTimeSec);
    EXPECT_EQ(r.replayedIterations, 0);
}

TEST(FaultRecovery, TransientFailureChargesRetry)
{
    auto wl = BenchmarkSuite::create("KGNNL");
    DdpTrainer trainer;
    FaultEvent blip;
    blip.kind = FaultKind::TransientKernel;
    blip.timeSec = 1e-4;
    FaultToleranceResult r = trainer.runWithFaults(
        *wl, smallConfig(), 2, FaultPlan({blip}), quickOptions());

    ASSERT_EQ(r.events.size(), 1u);
    EXPECT_EQ(r.events[0].kind, FaultKind::TransientKernel);
    EXPECT_GT(r.events[0].detectionSec, 0);
    EXPECT_GT(r.events[0].rollbackSec, 0); // the recomputed iteration
    EXPECT_EQ(r.worldEnd, 2);
    EXPECT_GT(r.totalTimeSec, r.idealTimeSec);
}

TEST(FaultRecovery, SoloRunIgnoresPeerCrashes)
{
    // With world == 1 there is no all-reduce to time out on, so crash
    // events cannot be observed; the run simply completes.
    auto wl = BenchmarkSuite::create("KGNNL");
    DdpTrainer trainer;
    FaultToleranceResult r = trainer.runWithFaults(
        *wl, smallConfig(), 1, FaultPlan({crashAt(0.0, 0)}),
        quickOptions());
    EXPECT_EQ(r.worldEnd, 1);
    EXPECT_EQ(r.executedIterations, quickOptions().iterations);
    EXPECT_TRUE(r.events.empty());
}
