/** @file Record→replay fidelity: on the recording configuration, a
 *  replayed trace must reproduce the live characterization bitwise —
 *  every profiler aggregate and every printed report. On other
 *  configurations it must price the what-if sensibly. */

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <variant>
#include <vector>

#include "base/units.hh"
#include "core/reports.hh"
#include "obs/span.hh"
#include "core/suite.hh"
#include "core/trace_capture.hh"
#include "sim/cache_model.hh"
#include "trace/reader.hh"
#include "trace/replayer.hh"
#include "trace/writer.hh"
#include "common/thread_count_guard.hh"

using namespace gnnmark;

namespace {

RunOptions
smallRun()
{
    RunOptions opt;
    opt.seed = 7;
    opt.scale = 0.25;
    opt.iterations = 2;
    opt.warmupIterations = 1;
    return opt;
}

/** Assert every aggregate the paper reports matches exactly. */
void
expectProfilesIdentical(const WorkloadProfile &live,
                        const WorkloadProfile &replayed)
{
    EXPECT_EQ(live.profiler.totalLaunches(),
              replayed.profiler.totalLaunches());
    EXPECT_EQ(live.profiler.totalKernelTimeSec(),
              replayed.profiler.totalKernelTimeSec());
    EXPECT_EQ(live.profiler.l1HitRate(), replayed.profiler.l1HitRate());
    EXPECT_EQ(live.profiler.l2HitRate(), replayed.profiler.l2HitRate());
    EXPECT_EQ(live.profiler.divergentLoadFraction(),
              replayed.profiler.divergentLoadFraction());
    EXPECT_EQ(live.profiler.gflops(), replayed.profiler.gflops());
    EXPECT_EQ(live.profiler.giops(), replayed.profiler.giops());
    EXPECT_EQ(live.profiler.avgIpc(), replayed.profiler.avgIpc());

    const auto live_mix = live.profiler.instructionMix();
    const auto replay_mix = replayed.profiler.instructionMix();
    EXPECT_EQ(live_mix.int32Frac, replay_mix.int32Frac);
    EXPECT_EQ(live_mix.fp32Frac, replay_mix.fp32Frac);
    EXPECT_EQ(live_mix.otherFrac, replay_mix.otherFrac);

    EXPECT_EQ(live.profiler.stallBreakdown(),
              replayed.profiler.stallBreakdown());
    EXPECT_EQ(live.profiler.opTimeBreakdown(),
              replayed.profiler.opTimeBreakdown());
    EXPECT_EQ(live.profiler.avgTransferSparsity(),
              replayed.profiler.avgTransferSparsity());
    EXPECT_EQ(live.profiler.totalTransferBytes(),
              replayed.profiler.totalTransferBytes());

    EXPECT_EQ(live.wallTimeSec, replayed.wallTimeSec);
    EXPECT_EQ(live.epochTimeSec, replayed.epochTimeSec);
    EXPECT_EQ(live.iterationsPerEpoch, replayed.iterationsPerEpoch);
    EXPECT_EQ(live.parameterBytes, replayed.parameterBytes);
    EXPECT_EQ(live.losses, replayed.losses);
}

/** Render every report the paper derives from one profile. */
std::string
renderReports(const WorkloadProfile &profile)
{
    std::ostringstream os;
    const std::vector<WorkloadProfile> profiles = {profile};
    reports::printFig2OpBreakdown(profiles, os);
    reports::printFig3InstructionMix(profiles, os);
    reports::printFig4Throughput(profiles, os);
    reports::printFig5Stalls(profiles, os);
    reports::printFig6Cache(profiles, os);
    reports::printFig7Sparsity(profiles, os);
    reports::printKernelTable(profile, os);
    return os.str();
}

} // namespace

/** Per-ISSUE acceptance: every suite workload round-trips. */
class TraceReplayFidelity : public ::testing::TestWithParam<std::string>
{
};

TEST_P(TraceReplayFidelity, ReplayMatchesLiveRunExactly)
{
    WorkloadProfile live;
    const trace::RecordedTrace trace =
        recordWorkloadTrace(GetParam(), smallRun(), &live);
    ASSERT_FALSE(trace.events.empty());

    const trace::ReplayResult replayed = trace::replayTrace(trace);
    EXPECT_EQ(replayed.name, live.name);
    expectProfilesIdentical(live, replayed);
}

TEST_P(TraceReplayFidelity, SerializedReplayMatchesToo)
{
    // The fidelity must survive the disk format, not just the
    // in-memory event list.
    WorkloadProfile live;
    const trace::RecordedTrace trace =
        recordWorkloadTrace(GetParam(), smallRun(), &live);
    const std::vector<uint8_t> bytes = trace::serializeTrace(trace);
    const trace::RecordedTrace loaded =
        trace::parseTrace(bytes, "in-memory trace");

    expectProfilesIdentical(live, trace::replayTrace(loaded));
}

INSTANTIATE_TEST_SUITE_P(
    Suite, TraceReplayFidelity,
    ::testing::ValuesIn(BenchmarkSuite::workloadNames()),
    [](const auto &info) {
        std::string name = info.param;
        for (char &c : name)
            if (c == '-')
                c = '_';
        return name;
    });

namespace {

/** Every record a device emits, in order. */
struct RecordLog : KernelObserver
{
    std::vector<KernelRecord> kernels;
    std::vector<TransferRecord> transfers;

    void onKernel(const KernelRecord &r) override { kernels.push_back(r); }
    void
    onTransfer(const TransferRecord &r) override
    {
        transfers.push_back(r);
    }
};

/** Record by record, every field of `got` equals `want`'s. */
void
expectSameRecords(const RecordLog &want, const RecordLog &got,
                  const std::string &where)
{
    ASSERT_EQ(got.kernels.size(), want.kernels.size()) << where;
    for (size_t i = 0; i < want.kernels.size(); ++i) {
        const KernelRecord &a = want.kernels[i];
        const KernelRecord &b = got.kernels[i];
        ASSERT_TRUE(static_cast<const SimCounters &>(a) == b &&
                    a.name == b.name && a.opClass == b.opClass &&
                    a.invocation == b.invocation &&
                    a.detailed == b.detailed && a.timeSec == b.timeSec &&
                    a.cycles == b.cycles && a.activeSms == b.activeSms &&
                    a.ipc == b.ipc)
            << where << ": kernel record " << i << " (" << a.name << ")";
    }
    ASSERT_EQ(got.transfers.size(), want.transfers.size()) << where;
    for (size_t i = 0; i < want.transfers.size(); ++i) {
        const TransferRecord &a = want.transfers[i];
        const TransferRecord &b = got.transfers[i];
        ASSERT_TRUE(a.tag == b.tag && a.bytes == b.bytes &&
                    a.zeroFraction == b.zeroFraction &&
                    a.timeSec == b.timeSec)
            << where << ": transfer record " << i << " (" << a.tag << ")";
    }
}

/**
 * Sweeps around the recording config: five L2 sizes, four L1 sizes,
 * and a list that mixes L1, L2 and associativity points with the
 * recording config and an SM count (which never groups).
 */
std::vector<std::vector<GpuConfig>>
lockstepSweeps(const GpuConfig &base)
{
    std::vector<GpuConfig> l2;
    for (const uint64_t mib : {2, 3, 4, 6, 12}) {
        l2.push_back(base);
        l2.back().l2SizeBytes = mib * MiB;
    }
    std::vector<GpuConfig> l1;
    for (const uint64_t kib : {32, 64, 128, 256}) {
        l1.push_back(base);
        l1.back().l1SizeBytes = kib * KiB;
    }
    GpuConfig fewer_sms = base;
    fewer_sms.numSms = 40;
    GpuConfig ways = base;
    ways.l1Assoc = 8;
    ways.l2Assoc = 8;
    return {l2, l1, {l2[2], fewer_sms, l1[1], base, ways, l2[4]}};
}

} // namespace

/**
 * Lockstep sweeps against solo replays: every point of each sweep, at
 * pool sizes 1 (one group per class of cache-only variants) and 4
 * (groups of one or two), must emit exactly the records, in the same
 * order, and the profile that replayTrace gives on its config.
 */
class TraceLockstepSweep : public ::testing::TestWithParam<std::string>
{
};

TEST_P(TraceLockstepSweep, EveryPointEqualsItsSoloReplay)
{
    RunOptions opt = smallRun();
    opt.iterations = 1;
    const trace::RecordedTrace trace = recordWorkloadTrace(GetParam(), opt);
    for (const std::vector<GpuConfig> &configs :
         lockstepSweeps(trace.header.config)) {
        std::vector<RecordLog> solo_logs(configs.size());
        std::vector<trace::ReplayResult> solo;
        for (size_t p = 0; p < configs.size(); ++p)
            solo.push_back(
                trace::replayTrace(trace, configs[p], {&solo_logs[p]}));

        for (const int threads : {1, 4}) {
            test::ThreadCountGuard pool(threads);
            std::vector<RecordLog> logs(configs.size());
            std::vector<std::vector<KernelObserver *>> observers;
            for (RecordLog &log : logs)
                observers.push_back({&log});
            const std::vector<trace::ReplayResult> swept =
                trace::sweepTrace(trace, configs, observers);
            ASSERT_EQ(swept.size(), configs.size());
            for (size_t p = 0; p < configs.size(); ++p) {
                const std::string where =
                    "point " + std::to_string(p) + " of " +
                    std::to_string(configs.size()) + " at " +
                    std::to_string(threads) + " threads";
                expectSameRecords(solo_logs[p], logs[p], where);
                if (HasFatalFailure())
                    return;
                expectProfilesIdentical(solo[p], swept[p]);
                EXPECT_EQ(solo[p].iterations.size(),
                          swept[p].iterations.size())
                    << where;
            }
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    Suite, TraceLockstepSweep,
    ::testing::ValuesIn(BenchmarkSuite::workloadNames()),
    [](const auto &info) {
        std::string name = info.param;
        for (char &c : name)
            if (c == '-')
                c = '_';
        return name;
    });

/** Bitwise-identical *printed reports* for three workloads. */
class TraceReplayReports : public ::testing::TestWithParam<std::string>
{
};

TEST_P(TraceReplayReports, PrintedReportsAreBitwiseIdentical)
{
    WorkloadProfile live;
    const trace::RecordedTrace trace =
        recordWorkloadTrace(GetParam(), smallRun(), &live);
    const trace::ReplayResult replayed = trace::replayTrace(trace);
    EXPECT_EQ(renderReports(live), renderReports(replayed));
}

INSTANTIATE_TEST_SUITE_P(Suite, TraceReplayReports,
                         ::testing::Values("STGCN", "KGNNL", "ARGA"),
                         [](const auto &info) {
                             std::string name = info.param;
                             for (char &c : name)
                                 if (c == '-')
                                     c = '_';
                             return name;
                         });

TEST(TraceReplay, ReplayIsRepeatable)
{
    const trace::RecordedTrace trace =
        recordWorkloadTrace("STGCN", smallRun());
    const trace::ReplayResult a = trace::replayTrace(trace);
    const trace::ReplayResult b = trace::replayTrace(trace);
    expectProfilesIdentical(a, b);
}

TEST(TraceReplay, LargerL2ImprovesHitRate)
{
    const trace::RecordedTrace trace =
        recordWorkloadTrace("STGCN", smallRun());

    GpuConfig small = trace.header.config;
    small.l2SizeBytes = 1 * MiB;
    GpuConfig large = trace.header.config;
    large.l2SizeBytes = 48 * MiB;

    const auto results = trace::sweepTrace(trace, {small, large});
    ASSERT_EQ(results.size(), 2u);
    EXPECT_LT(results[0].profiler.l2HitRate(),
              results[1].profiler.l2HitRate());
    // More cache never hurts the modeled epoch time.
    EXPECT_GE(results[0].wallTimeSec, results[1].wallTimeSec);
}

TEST(TraceReplay, SmCountSweepStillRuns)
{
    // Changing the SM count changes which warps the device wants to
    // simulate; the archive fallback must cover the difference.
    const trace::RecordedTrace trace =
        recordWorkloadTrace("KGNNL", smallRun());
    GpuConfig fewer = trace.header.config;
    fewer.numSms = 40;
    const trace::ReplayResult result = trace::replayTrace(trace, fewer);
    EXPECT_GT(result.profiler.totalLaunches(), 0);
    EXPECT_GT(result.wallTimeSec, 0);
}

TEST(TraceReplay, ReplayCountsMatchTraceStream)
{
    const trace::RecordedTrace trace =
        recordWorkloadTrace("ARGA", smallRun());
    int64_t launches_in_stream = 0;
    for (const auto &event : trace.events)
        if (std::holds_alternative<trace::LaunchEvent>(event))
            ++launches_in_stream;
    const trace::ReplayResult result = trace::replayTrace(trace);
    EXPECT_EQ(result.profiler.totalLaunches(), launches_in_stream);
}

/**
 * The deferred L2 install against the eager walk on real traffic: a
 * recorded DeepGCN run's footprint ranges (under GpuDevice's 32,768
 * line budget), its H2D copies and a cache flush spliced in mid-run,
 * fed to an eager and a deferred L2 as GpuDevice feeds them. The
 * recorded warps' lines must hit and miss alike; in the deferred L2
 * they fold only the sets they touch. Every few detailed launches, and
 * at the end, the deferred L2 materializes and both must hold the same
 * lines with the same clocks in every set.
 */
TEST(TraceReplay, DeferredL2InstallMatchesTheEagerWalkOnRealTraffic)
{
    RunOptions opt = smallRun();
    opt.iterations = 1;
    trace::RecordedTrace trace = recordWorkloadTrace("DGCN", opt);
    trace.events.insert(trace.events.begin() + trace.events.size() / 2,
                        TraceMarker::CachesFlushed);
    const GpuConfig &cfg = trace.header.config;
    constexpr int64_t kBudget = 32768;

    // The recording's 3,072 sets, and 2,560: not a power of two.
    for (const uint64_t l2_bytes : {cfg.l2SizeBytes, 5 * MiB}) {
        CacheModel eager(l2_bytes, cfg.l2Assoc, cfg.cacheLineBytes);
        CacheModel lazy(l2_bytes, cfg.l2Assoc, cfg.cacheLineBytes);
        const auto expectSameSets = [&](const std::string &where) {
            lazy.materialize();
            for (uint64_t set = 0; set < eager.numSets(); ++set)
                ASSERT_EQ(lazy.setState(set), eager.setState(set))
                    << where << ", set " << set;
        };
        int64_t detailed = 0;
        for (const trace::TraceEvent &event : trace.events) {
            if (const auto *launch =
                    std::get_if<trace::LaunchEvent>(&event)) {
                if (!launch->warps.empty()) {
                    for (const trace::TracedWarp &warp : launch->warps) {
                        for (const uint64_t addr : warp.trace.lines)
                            ASSERT_EQ(lazy.access(addr), eager.access(addr))
                                << launch->name;
                    }
                    if (++detailed % 8 == 0) {
                        expectSameSets(launch->name);
                        if (HasFatalFailure())
                            return;
                    }
                }
                int64_t budget = kBudget;
                for (const auto *ranges :
                     {&launch->outputRanges, &launch->inputRanges}) {
                    for (const auto &[addr, bytes] : *ranges) {
                        if (budget <= 0)
                            break;
                        const int64_t n =
                            eager.accessLines(addr, bytes, budget);
                        ASSERT_EQ(lazy.deferLines(addr, bytes, budget), n);
                        budget -= n;
                    }
                }
            } else if (const auto *copy =
                           std::get_if<trace::TransferEvent>(&event)) {
                eager.accessLines(copy->addr, copy->bytes, kBudget);
                lazy.deferLines(copy->addr, copy->bytes, kBudget);
            } else if (std::get<TraceMarker>(event) ==
                       TraceMarker::CachesFlushed) {
                eager.flush();
                lazy.flush();
            }
        }
        expectSameSets("the end of the run");
        if (HasFatalFailure())
            return;
        EXPECT_GT(detailed, 0);
    }
}

TEST(TraceReplay, EnablingObservabilityDoesNotPerturbTheReport)
{
    // Replays are fully deterministic (addresses come from the trace),
    // so this asserts the observability layer's core guarantee
    // byte-for-byte: span tracing on or off, the printed reports are
    // identical.
    const trace::RecordedTrace trace =
        recordWorkloadTrace("STGCN", smallRun());
    obs::SpanTracer &tracer = obs::SpanTracer::instance();
    tracer.setEnabled(false);
    const std::string off = renderReports(trace::replayTrace(trace));
    tracer.setEnabled(true);
    const std::string on = renderReports(trace::replayTrace(trace));
    tracer.setEnabled(false);
    tracer.clear();
    EXPECT_EQ(off, on);
    EXPECT_GT(off.size(), 0u);
}

TEST(TraceReplay, ReplayRecoversIterationTimelines)
{
    // v2 traces carry backward phase markers, so a replay can rebuild
    // the per-iteration kernel timelines the DDP overlap model prices
    // gradient buckets against.
    const trace::RecordedTrace trace =
        recordWorkloadTrace("STGCN", smallRun());
    const trace::ReplayResult result = trace::replayTrace(trace);
    ASSERT_EQ(result.iterations.size(),
              static_cast<size_t>(smallRun().iterations));
    for (const IterationTimeline &t : result.iterations) {
        EXPECT_GT(t.kernelSec, 0);
        EXPECT_GT(t.kernelCount, 0);
        EXPECT_TRUE(t.hasBackward());
        EXPECT_GT(t.backwardEndKernelSec, t.backwardBeginKernelSec);
        EXPECT_LE(t.backwardEndKernelSec, t.kernelSec * (1 + 1e-12));
        // Backward kernel ends are cumulative and ordered.
        double prev = t.backwardBeginKernelSec;
        for (double end : t.backwardKernelEnds) {
            EXPECT_GE(end, prev);
            prev = end;
        }
    }
}

TEST(TraceReplay, DoubleBackwardWorkloadKeepsOneWindowPerIteration)
{
    // ARGA runs two backward sweeps per iteration; the collector must
    // still produce exactly one (merged) window per iteration.
    const trace::RecordedTrace trace =
        recordWorkloadTrace("ARGA", smallRun());
    const trace::ReplayResult result = trace::replayTrace(trace);
    ASSERT_EQ(result.iterations.size(),
              static_cast<size_t>(smallRun().iterations));
    for (const IterationTimeline &t : result.iterations)
        EXPECT_TRUE(t.hasBackward());
}
