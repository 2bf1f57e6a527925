/**
 * @file
 * Serving-simulator tests on synthetic cost tables: no model or
 * device is built, so each scenario is a few milliseconds of pure
 * event-loop work with hand-placed faults and exact expectations.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "core/reports_json.hh"
#include "models/ego_net.hh"
#include "obs/json.hh"
#include "serve/server.hh"
#include "sim/gpu_device.hh"

using namespace gnnmark;
using namespace gnnmark::serve;

namespace {

/** Flat 1 ms/batch table: batching is free, arithmetic is easy. */
BatchCostTable
flatTable()
{
    BatchCostTable t;
    t.sizes = {1};
    t.costs = {0.001};
    return t;
}

ServeOptions
baseOptions()
{
    ServeOptions opt;
    opt.traffic.ratePerSec = 3000;
    opt.traffic.durationSec = 0.2;
    opt.traffic.sloSec = 0.01;
    opt.traffic.seed = 5;
    opt.traffic.catalogItems = 64;
    opt.replicas = 2;
    opt.maxBatch = 8;
    return opt;
}

FaultEvent
straggler(int replica, double t, double duration, double magnitude)
{
    FaultEvent e;
    e.kind = FaultKind::Straggler;
    e.timeSec = t;
    e.replica = replica;
    e.durationSec = duration;
    e.magnitude = magnitude;
    return e;
}

FaultEvent
crash(int replica, double t)
{
    FaultEvent e;
    e.kind = FaultKind::ReplicaCrash;
    e.timeSec = t;
    e.replica = replica;
    return e;
}

void
checkConservation(const ServingReport &rep)
{
    EXPECT_EQ(rep.full + rep.fallback + rep.shed + rep.lost,
              rep.offered);
}

} // namespace

TEST(ServingSimulator, HealthyRunServesEverythingInTime)
{
    const ServingReport rep =
        ServingSimulator(flatTable(), baseOptions()).run();
    checkConservation(rep);
    EXPECT_GT(rep.offered, 0);
    EXPECT_EQ(rep.full, rep.offered);
    EXPECT_EQ(rep.sloMet, rep.offered);
    EXPECT_EQ(rep.shed, 0);
    EXPECT_EQ(rep.lost, 0);
    EXPECT_EQ(rep.retries, 0);
    EXPECT_EQ(rep.timeouts, 0);
    EXPECT_EQ(rep.hedgesLaunched, 0);
    EXPECT_GT(rep.goodputPerSec, 0.0);
    EXPECT_GT(rep.meanBatchSize, 1.0);
    EXPECT_LE(rep.p50Ms, rep.p99Ms);
    EXPECT_LE(rep.p99Ms, rep.maxMs);
}

TEST(ServingSimulator, ReportIsByteIdenticalAcrossRuns)
{
    ServeOptions opt = baseOptions();
    opt.faults = FaultPlan({straggler(0, 0.02, 0.1, 8.0)});
    opt.faultScenario = "straggler";
    const ServingReport a = ServingSimulator(flatTable(), opt).run();
    const ServingReport b = ServingSimulator(flatTable(), opt).run();
    EXPECT_EQ(reports::servingJson(a), reports::servingJson(b));
}

TEST(ServingSimulator, HedgeWinsWithoutDoubleCounting)
{
    // One request, replica 0 straggling 50x from t=0: the primary
    // lands on the slow replica, the hedge fires on replica 1 at
    // kHedgeFactor x its cost and wins before kTimeoutFactor x, and
    // the answer is counted exactly once.
    ServeOptions opt = baseOptions();
    opt.traffic.ratePerSec = 10; // a lone arrival in a short window
    opt.traffic.durationSec = 0.15;
    opt.traffic.sloSec = 0.05;
    opt.traffic.seed = 3;
    opt.maxBatch = 1;
    opt.breakerEnabled = false;
    opt.faults = FaultPlan({straggler(0, 0.0, 10.0, 50.0)});
    const ServingReport rep =
        ServingSimulator(flatTable(), opt).run();
    checkConservation(rep);
    ASSERT_GT(rep.offered, 0);
    EXPECT_EQ(rep.full, rep.offered);
    EXPECT_GT(rep.hedgesLaunched, 0);
    EXPECT_EQ(rep.hedgeWins, rep.hedgesLaunched);
    EXPECT_EQ(rep.timeouts, 0);
    // The cancelled primary's work is accounted as cancelled time,
    // not as a completion.
    EXPECT_GT(rep.cancelledSec, 0.0);
    int64_t completed = 0;
    for (const ReplicaReport &r : rep.perReplica)
        completed += r.batchesCompleted;
    EXPECT_EQ(completed, rep.offered); // batch size 1, one win each
}

TEST(ServingSimulator, WholePoolCrashShedsOrLosesEverything)
{
    ServeOptions opt = baseOptions();
    opt.faults = FaultPlan({crash(0, 0.0), crash(1, 0.0)});
    opt.faultScenario = "crash";
    const ServingReport repShed =
        ServingSimulator(flatTable(), opt).run();
    checkConservation(repShed);
    EXPECT_EQ(repShed.full, 0);
    EXPECT_EQ(repShed.sloMet, 0);
    // Admission sees zero healthy replicas and sheds on arrival.
    EXPECT_GT(repShed.shed, 0);

    opt.shedEnabled = false;
    opt.fallbackEnabled = false;
    const ServingReport repNaive =
        ServingSimulator(flatTable(), opt).run();
    checkConservation(repNaive);
    EXPECT_EQ(repNaive.full, 0);
    EXPECT_EQ(repNaive.shed, 0);
    EXPECT_EQ(repNaive.lost, repNaive.offered);
}

TEST(ServingSimulator, CrashMidServiceTimesOutAndRetries)
{
    // Single overloaded replica crashing mid-run: the replica is
    // continuously busy, so the crash lands mid-service — in-flight
    // work never completes (only its timeout fires) and later
    // arrivals are shed as infeasible.
    ServeOptions opt = baseOptions();
    opt.replicas = 1;
    opt.traffic.ratePerSec = 12000;
    opt.traffic.durationSec = 0.1;
    opt.faults = FaultPlan({crash(0, 0.05)});
    opt.faultScenario = "crash";
    const ServingReport rep =
        ServingSimulator(flatTable(), opt).run();
    checkConservation(rep);
    EXPECT_GT(rep.full, 0);            // served before the crash
    EXPECT_LT(rep.full, rep.offered);  // nothing after it
    EXPECT_GT(rep.timeouts, 0);        // the in-flight batch died
    EXPECT_GT(rep.shed + rep.lost + rep.fallback, 0);
}

TEST(ServingSimulator, BreakerSidelinesTheStragglerReplica)
{
    // Load high enough that dispatch regularly spills past replica 0
    // onto the straggler, whose 40x service time then times out.
    ServeOptions opt = baseOptions();
    opt.traffic.ratePerSec = 12000;
    opt.traffic.durationSec = 0.3;
    opt.hedgeEnabled = false; // isolate the breaker's contribution
    opt.faults = FaultPlan({straggler(1, 0.02, 0.25, 40.0)});
    opt.faultScenario = "straggler";
    const ServingReport rep =
        ServingSimulator(flatTable(), opt).run();
    checkConservation(rep);
    EXPECT_GT(rep.breakerOpens, 0);
    ASSERT_EQ(rep.perReplica.size(), 2u);
    // Only the straggler's breaker trips.
    EXPECT_EQ(rep.perReplica[0].breakerOpens, 0);
    EXPECT_GT(rep.perReplica[1].breakerOpens, 0);
    EXPECT_GT(rep.perReplica[1].timeouts, 0);
}

TEST(ServingSimulator, FallbackServesFromTheCache)
{
    // A tiny catalogue makes cache hits near-certain once warm, so
    // requests degraded during the straggler window become fallbacks
    // rather than losses.
    ServeOptions opt = baseOptions();
    opt.traffic.catalogItems = 8;
    opt.traffic.durationSec = 0.3;
    opt.faults = FaultPlan({straggler(0, 0.02, 0.2, 40.0),
                            straggler(1, 0.02, 0.2, 40.0)});
    opt.faultScenario = "straggler";
    const ServingReport rep =
        ServingSimulator(flatTable(), opt).run();
    checkConservation(rep);
    EXPECT_GT(rep.fallback, 0);
    EXPECT_GT(rep.cacheHits, 0);
    EXPECT_GT(rep.cacheHitRate, 0.0);

    ServeOptions naive = opt;
    naive.fallbackEnabled = false;
    const ServingReport repNaive =
        ServingSimulator(flatTable(), naive).run();
    checkConservation(repNaive);
    EXPECT_EQ(repNaive.fallback, 0);
    EXPECT_EQ(repNaive.cacheHits, 0);
}

TEST(ServingSimulator, SheddingBoundsTailLatencyUnderOverload)
{
    // 4x overload on one replica: with shedding the served tail
    // stays near the SLO; without it the queue grows and p99 blows
    // past the deadline.
    ServeOptions opt = baseOptions();
    opt.replicas = 1;
    opt.maxBatch = 4;
    opt.traffic.ratePerSec = 16000; // capacity is 4000/s
    opt.traffic.durationSec = 0.1;
    opt.hedgeEnabled = false;
    opt.fallbackEnabled = false;
    const ServingReport shed =
        ServingSimulator(flatTable(), opt).run();
    checkConservation(shed);
    EXPECT_GT(shed.shed, 0);
    EXPECT_LE(shed.p99Ms, 2.0 * opt.traffic.sloSec * 1e3);

    ServeOptions naive = opt;
    naive.shedEnabled = false;
    const ServingReport open =
        ServingSimulator(flatTable(), naive).run();
    checkConservation(open);
    EXPECT_EQ(open.shed, 0);
    EXPECT_GT(open.p99Ms, shed.p99Ms);
    EXPECT_GE(shed.sloMet, open.sloMet);
}

TEST(ServingSimulator, CostTableInterpolatesAndExtrapolates)
{
    BatchCostTable t;
    t.sizes = {1, 4, 8};
    t.costs = {0.001, 0.002, 0.004};
    EXPECT_DOUBLE_EQ(t.costSec(1), 0.001);
    EXPECT_DOUBLE_EQ(t.costSec(4), 0.002);
    // Linear between anchors.
    EXPECT_NEAR(t.costSec(2), 0.001 + (0.002 - 0.001) / 3.0, 1e-12);
    EXPECT_DOUBLE_EQ(t.costSec(6), 0.003);
    // Beyond the last anchor: final segment's slope continues.
    EXPECT_NEAR(t.costSec(12), 0.004 + 4.0 * 0.0005, 1e-12);
}

TEST(ServingSimulatorDeath, RejectsBrokenConfigs)
{
    EXPECT_DEATH(ServingSimulator(BatchCostTable{}, baseOptions()),
                 "cost table");
    ServeOptions opt = baseOptions();
    opt.replicas = 0;
    EXPECT_DEATH(ServingSimulator(flatTable(), opt), "replica");
    opt = baseOptions();
    opt.maxBatch = 0;
    EXPECT_DEATH(ServingSimulator(flatTable(), opt), "maxBatch");
}

TEST(ServingSimulatorDeath, RefusesPoolsAndBatchesAboveTheCaps)
{
    ServeOptions opt = baseOptions();
    opt.replicas = kMaxReplicas + 1;
    EXPECT_DEATH(ServingSimulator(flatTable(), opt), "replicas");
    opt = baseOptions();
    opt.maxBatch = kMaxBatchSize + 1;
    EXPECT_DEATH(ServingSimulator(flatTable(), opt), "maxBatch");
    // Pricing refuses before its doubling loop could overflow an int.
    EXPECT_DEATH(
        {
            EgoNetBatchModel model(0.05, 1);
            GpuDevice device(GpuConfig::v100(), 1);
            priceBatchCosts(model, device, kMaxBatchSize + 1, 1);
        },
        "maxBatch");
}

TEST(ServingSimulator, WindowedTimelineConservesPerWindowCounts)
{
    ServeOptions opt = baseOptions();
    opt.windowSec = 0.05;
    const ServingReport rep =
        ServingSimulator(flatTable(), opt).run();
    ASSERT_FALSE(rep.windows.empty());
    EXPECT_DOUBLE_EQ(rep.windowSec, 0.05);

    // Outcomes are attributed to the arrival window, so each window
    // conserves exactly and the whole series sums to the run totals.
    int64_t offered = 0, full = 0, shed = 0, lost = 0, fallback = 0;
    for (const ServingWindow &w : rep.windows) {
        EXPECT_EQ(w.full + w.fallback + w.shed + w.lost, w.offered)
            << "window " << w.index;
        EXPECT_DOUBLE_EQ(w.startSec, w.index * rep.windowSec);
        offered += w.offered;
        full += w.full;
        shed += w.shed;
        lost += w.lost;
        fallback += w.fallback;
    }
    EXPECT_EQ(offered, rep.offered);
    EXPECT_EQ(full, rep.full);
    EXPECT_EQ(shed, rep.shed);
    EXPECT_EQ(lost, rep.lost);
    EXPECT_EQ(fallback, rep.fallback);
}

TEST(ServingSimulator, WindowedTimelineIsStableAcrossRuns)
{
    ServeOptions opt = baseOptions();
    opt.windowSec = 0.02;
    opt.traceSampleEvery = 8;
    opt.faults = FaultPlan({straggler(0, 0.05, 0.1, 6.0)});
    const std::string a = reports::servingJson(
        ServingSimulator(flatTable(), opt).run());
    const std::string b = reports::servingJson(
        ServingSimulator(flatTable(), opt).run());
    EXPECT_EQ(a, b);
}

TEST(ServingSimulator, StragglerFaultRaisesBurnAlertOverlappingFault)
{
    ServeOptions opt = baseOptions();
    opt.traffic.durationSec = 0.4;
    opt.windowSec = 0.02;
    opt.sloTarget = 0.99;
    opt.traffic.sloSec = 0.005;
    // The whole pool 10x slow over [0.1, 0.3): every request in the
    // fault interval blows the 5 ms SLO, so the burn-rate monitor
    // must raise at least one alert overlapping it.
    opt.faults = FaultPlan({straggler(0, 0.1, 0.2, 10.0),
                            straggler(1, 0.1, 0.2, 10.0)});
    opt.traceSampleEvery = 8;
    const ServingReport rep =
        ServingSimulator(flatTable(), opt).run();
    ASSERT_FALSE(rep.alerts.empty());
    bool overlaps = false;
    for (const obs::SloAlert &a : rep.alerts)
        overlaps = overlaps || (a.startSec < 0.3 && a.endSec > 0.1);
    EXPECT_TRUE(overlaps);
    EXPECT_GT(rep.budgetConsumed, 1.0);

    // The --json document carries the timeline, alerts and tracing
    // sections, and each slo_alert telemetry record matches its alert.
    const obs::JsonValue root = obs::parseJson(reports::servingJson(rep));
    const obs::JsonValue &doc = *root.find("serving");
    const obs::JsonValue *timeline = doc.find("timeline");
    ASSERT_NE(timeline, nullptr);
    const std::vector<obs::JsonValue> &windows =
        timeline->find("windows")->array;
    ASSERT_EQ(windows.size(), rep.windows.size());
    for (const char *key :
         {"offered", "p50_ms", "p95_ms", "p99_ms", "goodput_per_sec",
          "queue_depth_mean", "burn_rate", "budget_consumed"})
        EXPECT_NE(windows.front().find(key), nullptr) << key;
    const std::vector<obs::JsonValue> &alerts =
        timeline->find("alerts")->array;
    ASSERT_EQ(alerts.size(), rep.alerts.size());
    EXPECT_GT(doc.find("tracing")->find("traced_requests")->number, 0);
    for (size_t i = 0; i < alerts.size(); ++i) {
        const obs::JsonValue rec = obs::parseJson(
            reports::sloAlertRecordJson("serve", rep, rep.alerts[i]));
        EXPECT_EQ(rec.find("type")->string, "slo_alert");
        for (const auto &[key, value] : alerts[i].object) {
            ASSERT_NE(rec.find(key), nullptr) << key;
            EXPECT_EQ(rec.find(key)->string, value.string) << key;
            EXPECT_EQ(rec.find(key)->number, value.number) << key;
        }
    }
    const obs::JsonValue record =
        obs::parseJson(reports::servingRecordJson("serve", rep));
    EXPECT_EQ(record.find("type")->string, "serving");
    EXPECT_EQ(record.find("label")->string, "serve");
}

TEST(ServingSimulator, HealthyRunRaisesNoAlerts)
{
    ServeOptions opt = baseOptions();
    opt.windowSec = 0.02;
    const ServingReport rep =
        ServingSimulator(flatTable(), opt).run();
    EXPECT_TRUE(rep.alerts.empty());
    // Every request meets the SLO, so goodput accounts for them all.
    int64_t sloMet = 0;
    for (const ServingWindow &w : rep.windows)
        sloMet += w.sloMet;
    EXPECT_EQ(sloMet, rep.offered);
}

TEST(ServingSimulator, RequestTracesFollowSamplingAndExemplars)
{
    ServeOptions opt = baseOptions();
    opt.traceSampleEvery = 16;
    opt.traffic.durationSec = 0.3;
    // Straggler + overload produce shed/timeout exemplars.
    opt.traffic.ratePerSec = 6000;
    opt.faults = FaultPlan({straggler(0, 0.05, 0.2, 8.0)});
    ServingSimulator sim(flatTable(), opt);
    const ServingReport rep = sim.run();
    const std::vector<obs::RequestTrace> traces =
        sim.drainRequestTraces();
    ASSERT_FALSE(traces.empty());
    EXPECT_EQ(rep.tracedRequests,
              static_cast<int64_t>(traces.size()));

    bool sawExemplar = false;
    for (size_t i = 0; i < traces.size(); ++i) {
        if (i > 0) {
            EXPECT_LT(traces[i - 1].id, traces[i].id);
        }
        const obs::RequestTrace &t = traces[i];
        if (!t.exemplar) {
            EXPECT_EQ(t.id % opt.traceSampleEvery, 0);
        }
        sawExemplar = sawExemplar || t.exemplar;
        ASSERT_FALSE(t.spans.empty());
        EXPECT_EQ(t.spans.front().name, "arrival");
        for (const obs::RequestSpan &s : t.spans)
            EXPECT_GE(s.endSec, s.startSec);
    }
    EXPECT_TRUE(sawExemplar);

    // A second drain returns nothing.
    EXPECT_TRUE(sim.drainRequestTraces().empty());
}

TEST(ServingSimulator, TimelineAndTracingStayOffByDefault)
{
    ServingSimulator sim(flatTable(), baseOptions());
    const ServingReport rep = sim.run();
    EXPECT_TRUE(rep.windows.empty());
    EXPECT_TRUE(rep.alerts.empty());
    EXPECT_DOUBLE_EQ(rep.windowSec, 0);
    EXPECT_EQ(rep.traceSampleEvery, 0);
    EXPECT_TRUE(sim.drainRequestTraces().empty());
}
