/** @file Tests for the JSON report twins and end-to-end telemetry. */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "core/characterization.hh"
#include "core/reports_json.hh"
#include "gen/edge_stream.hh"
#include "obs/bench_compare.hh"
#include "obs/json.hh"
#include "obs/telemetry.hh"

using namespace gnnmark;

namespace {

WorkloadProfile
tinyRun(obs::TelemetrySink *telemetry = nullptr, bool fresh = false)
{
    RunOptions opt;
    opt.scale = 0.25;
    opt.iterations = 2;
    opt.telemetry = telemetry;
    opt.freshAddressSpace = fresh;
    CharacterizationRunner runner(opt);
    return runner.run("STGCN");
}

/** Launches nothing; its loss turns NaN from the third step on. */
class DivergingWorkload : public Workload
{
  public:
    std::string name() const override { return "diverging"; }
    void setup(const WorkloadConfig &) override {}
    float
    trainIteration() override
    {
        return ++steps_ <= 2 ? 0.5f
                             : std::numeric_limits<float>::quiet_NaN();
    }
    int64_t iterationsPerEpoch() const override { return 1; }
    double parameterBytes() const override { return 0; }

  private:
    int steps_ = 0;
};

} // namespace

TEST(ReportsJson, FiguresDocumentCoversEveryPaperFigure)
{
    const WorkloadProfile profile = tinyRun();
    const std::string doc = reports::figuresJson({profile});
    const obs::JsonValue root = obs::parseJson(doc);
    const obs::JsonValue *wl = root.find("workloads")->find("STGCN");
    ASSERT_NE(wl, nullptr);
    for (const char *key :
         {"fig2_op_time_breakdown", "fig3_instruction_mix",
          "fig4_throughput", "fig5_stall_breakdown", "fig6_cache",
          "fig7_sparsity", "losses", "epoch_time_sec",
          "parameter_bytes"}) {
        EXPECT_NE(wl->find(key), nullptr) << "missing " << key;
    }
    EXPECT_EQ(wl->find("losses")->array.size(), 2u);
    // Op-time shares are a distribution.
    double share_sum = 0;
    for (const auto &[name, v] :
         wl->find("fig2_op_time_breakdown")->object)
        share_sum += v.number;
    EXPECT_NEAR(share_sum, 1.0, 1e-9);
}

TEST(ReportsJson, ManifestRecordCarriesConfigAndProfile)
{
    const WorkloadProfile profile = tinyRun();
    RunOptions opt;
    opt.scale = 0.25;
    opt.iterations = 2;
    const std::string line =
        reports::runManifestJson(profile, opt, /*threads=*/3,
                                 /*host_wall_us=*/123.0);
    const obs::JsonValue m = obs::parseJson(line);
    EXPECT_EQ(m.find("type")->string, "manifest");
    EXPECT_EQ(m.find("workload")->string, "STGCN");
    EXPECT_DOUBLE_EQ(m.find("seed")->number, 42);
    EXPECT_DOUBLE_EQ(m.find("scale")->number, 0.25);
    EXPECT_DOUBLE_EQ(m.find("threads")->number, 3);
    EXPECT_DOUBLE_EQ(m.find("host_wall_us")->number, 123);
    ASSERT_NE(m.find("profile"), nullptr);
    EXPECT_NE(m.find("profile")->find("fig4_throughput"), nullptr);
}

TEST(Telemetry, RunnerWritesOneRecordPerIterationPlusNothingElse)
{
    const std::string path =
        ::testing::TempDir() + "gnnmark_reports_json_tele.jsonl";
    {
        obs::TelemetrySink sink(path);
        tinyRun(&sink);
        EXPECT_EQ(sink.recordCount(), 2); // iterations only; the CLI
                                          // appends the manifest
    }
    std::ifstream in(path);
    std::string line;
    int iterations = 0;
    while (std::getline(in, line)) {
        const obs::JsonValue rec = obs::parseJson(line);
        EXPECT_EQ(rec.find("type")->string, "iteration");
        EXPECT_EQ(rec.find("workload")->string, "STGCN");
        EXPECT_DOUBLE_EQ(rec.find("iteration")->number, iterations);
        EXPECT_GT(rec.find("sim_time_us")->number, 0);
        EXPECT_GT(rec.find("kernels")->number, 0);
        ASSERT_NE(rec.find("metrics"), nullptr);
        EXPECT_GT(rec.find("metrics")
                      ->find("counters")
                      ->find("sim.kernel_launches")
                      ->number,
                  0);
        ++iterations;
    }
    std::remove(path.c_str());
    EXPECT_EQ(iterations, 2);
}

TEST(Telemetry, SameSeedSameProcessIsDeterministic)
{
    const std::string base = ::testing::TempDir();
    const std::string path_a = base + "gnnmark_tele_det_a.jsonl";
    const std::string path_b = base + "gnnmark_tele_det_b.jsonl";
    {
        obs::TelemetrySink a(path_a);
        tinyRun(&a, /*fresh=*/true);
    }
    // Work between the runs that launches nothing on their devices
    // must leave no trace in the second run's records.
    gen::GeneratorConfig cfg;
    cfg.n = 4000;
    gen::ChunkedEdgeStream stream(cfg);
    gen::EdgeBlock block;
    while (stream.next(block)) {
    }
    {
        obs::TelemetrySink b(path_b);
        tinyRun(&b, /*fresh=*/true);
    }
    // Each run sums only its own device's counters, and the cache
    // model hashes simulated addresses (DESIGN §9), so every key,
    // histogram buckets included, repeats exactly.
    const auto flat_a = obs::flattenTelemetryFile(path_a);
    const auto flat_b = obs::flattenTelemetryFile(path_b);
    std::remove(path_a.c_str());
    std::remove(path_b.c_str());
    const obs::CompareResult r =
        compareMetricMaps(flat_a, flat_b, obs::CompareOptions{});
    for (const obs::CompareFailure &f : r.failures)
        ADD_FAILURE() << describeFailure(f);
    EXPECT_GT(r.comparedKeys, 20);
}

TEST(Telemetry, DivergedLossKeepsTheLastFiniteGauge)
{
    const std::string path =
        ::testing::TempDir() + "gnnmark_tele_diverged.jsonl";
    {
        obs::TelemetrySink sink(path);
        RunOptions opt;
        opt.iterations = 2; // after one warm-up step: 0.5, then NaN
        opt.telemetry = &sink;
        DivergingWorkload workload;
        CharacterizationRunner(opt).run(workload);
    }
    const auto flat = obs::flattenTelemetryFile(path);
    std::remove(path.c_str());
    const std::string rec0 = "iteration.diverging.0.metrics.";
    const std::string rec1 = "iteration.diverging.1.metrics.";
    EXPECT_EQ(flat.at(rec0 + "gauges.train.loss"), 0.5);
    EXPECT_EQ(flat.at(rec1 + "gauges.train.loss"), 0.5);
    // A device that launched nothing still reports every sim counter.
    EXPECT_EQ(flat.at(rec1 + "counters.sim.kernel_launches"), 0);
    EXPECT_EQ(flat.at(rec1 + "counters.sim.transfers"), 0);
}

TEST(ReportsJson, ScalingDocumentShapesFig9)
{
    std::vector<std::pair<std::string, std::vector<ScalingResult>>>
        curves(1);
    curves[0].first = "STGCN";
    ScalingResult one;
    one.worldSize = 1;
    one.epochTimeSec = 2.0;
    one.speedup = 1.0;
    ScalingResult two;
    two.worldSize = 2;
    two.epochTimeSec = 1.2;
    two.speedup = 2.0 / 1.2;
    curves[0].second = {one, two};

    const obs::JsonValue doc =
        obs::parseJson(reports::scalingJson(curves));
    const obs::JsonValue *curve =
        doc.find("fig9_scaling")->find("STGCN");
    ASSERT_NE(curve, nullptr);
    ASSERT_EQ(curve->array.size(), 2u);
    EXPECT_DOUBLE_EQ(curve->array[1].find("world_size")->number, 2);
    // JSON numbers round-trip through %.12g, so allow that much slack.
    EXPECT_NEAR(curve->array[1].find("speedup")->number, 2.0 / 1.2,
                1e-9);
}

TEST(ReportsJson, ScalingDocumentCarriesOverlapSplit)
{
    ScalingResult p;
    p.worldSize = 2;
    p.epochTimeSec = 1.5;
    p.computeTimeSec = 1.0;
    p.commTimeSec = 0.8;
    p.commExposedSec = 0.5;
    p.overlapFrac = 0.375;
    p.speedup = 0.9;
    const std::string doc = reports::scalingJson({{"DGCN", {p}}});
    const obs::JsonValue root = obs::parseJson(doc);
    const obs::JsonValue *curve =
        root.find("fig9_scaling")->find("DGCN");
    ASSERT_NE(curve, nullptr);
    ASSERT_EQ(curve->array.size(), 1u);
    const obs::JsonValue &point = curve->array[0];
    EXPECT_EQ(point.find("comm_time_sec")->number, 0.8);
    EXPECT_EQ(point.find("comm_exposed_sec")->number, 0.5);
    EXPECT_EQ(point.find("overlap_frac")->number, 0.375);
}

TEST(ReportsJson, ScalingRecordNestsDdpKeysPerWorldSize)
{
    ScalingResult a;
    a.worldSize = 1;
    a.epochTimeSec = 1.0;
    a.computeTimeSec = 1.0;
    a.speedup = 1.0;
    ScalingResult b;
    b.worldSize = 4;
    b.epochTimeSec = 0.5;
    b.computeTimeSec = 0.4;
    b.commTimeSec = 0.2;
    b.commExposedSec = 0.1;
    b.overlapFrac = 0.5;
    b.speedup = 2.0;
    const std::string line = reports::scalingRecordJson(
        "GW", /*weak=*/false, /*overlap_on=*/true, {a, b});
    const obs::JsonValue root = obs::parseJson(line);
    EXPECT_EQ(root.find("type")->string, "scaling");
    EXPECT_EQ(root.find("workload")->string, "GW");
    EXPECT_EQ(root.find("mode")->string, "strong");
    EXPECT_EQ(root.find("overlap")->string, "on");
    const obs::JsonValue *w4 = root.find("w4");
    ASSERT_NE(w4, nullptr);
    const obs::JsonValue *ddp = w4->find("ddp");
    ASSERT_NE(ddp, nullptr);
    EXPECT_EQ(ddp->find("comm_total_sec")->number, 0.2);
    EXPECT_EQ(ddp->find("comm_exposed_sec")->number, 0.1);
    EXPECT_EQ(ddp->find("overlap_frac")->number, 0.5);
    // Flattened by bench_compare these become
    // scaling.GW.w4.ddp.comm_total_sec etc. — the keys bench_diff
    // baselines gate on.
}
