/**
 * @file
 * Host-time benchmark driver. Runs one workload in a closed loop (the
 * next step starts when the previous one returns) through the public
 * API of the gnnmark modules, the way CharacterizationRunner does, and
 * times those calls itself:
 *
 *   train-dgcn    DeepGCN at scale 1.0, one step = trainIteration()
 *   replay-sweep  one step = trace::sweepTrace of a recorded DeepGCN run
 *                 over L2 sizes of 2, 4, 6 and 12 MiB
 *
 * With --trace 0 it prints the end-to-end metrics; with --trace 1 a
 * separate traced run prints the per-layer ledger. Simulated V100
 * figures are the output check, never a metric. See README.md.
 */

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "base/allocator.hh"
#include "base/logging.hh"
#include "base/thread_pool.hh"
#include "base/units.hh"
#include "core/suite.hh"
#include "core/trace_capture.hh"
#include "ledger.hh"
#include "obs/json.hh"
#include "obs/span.hh"
#include "ops/dispatch.hh"
#include "ops/exec_context.hh"
#include "profiler/chrome_trace.hh"
#include "trace/reader.hh"
#include "trace/replayer.hh"
#include "trace/writer.hh"

using namespace gnnmark;
using hostbench::StepOutputs;

namespace {

using Clock = std::chrono::steady_clock;

constexpr uint64_t kDefaultSeed = 2021; // as in bench/bench_common.hh
/**
 * One pool thread for every workload. On a shared 4-vCPU host the wall
 * time of a step that fans out over all cores waits for the slowest
 * core, and swung 35-40% from run to run; on one thread it kept within
 * a few percent.
 */
constexpr int kPoolThreads = 1;
constexpr int kSetups = 3;              ///< set-ups per run; median reported
constexpr size_t kTailBeyond = 10;      ///< steps beyond the tail percentile
/** Enough timed steps that the tail percentile is p60 or higher. */
constexpr size_t kMinSteps = 25;
constexpr size_t kMinTracedSteps = 5;   ///< per phase of a traced run
constexpr double kMaxLoopSec = 45;      ///< hard stop for any timed loop
constexpr double kLedgerTolerance = 0.05;
/** Both workloads run DeepGCN at the suite's default size. */
constexpr const char *kModel = "DGCN";
constexpr double kScale = 1.0;
const std::vector<double> kSweepL2Mib = {2, 4, 6, 12};

double
secondsSince(Clock::time_point begin)
{
    return std::chrono::duration<double>(Clock::now() - begin).count();
}

struct Args
{
    std::string workload;
    uint64_t seed = kDefaultSeed;
    double seconds = 10;
    bool trace = false;
    std::string expectedDir = "hostbench/expected";
    std::string chromeTrace;   ///< traced run: where to write the spans
    std::string writeExpected; ///< regenerate the expected values here
    int expectedSteps = 0;     ///< ... for this many steps (train-*)
    std::string gitSha = "unknown";
};

[[noreturn]] void
usage(const std::string &error)
{
    std::cerr << "hostbench: " << error << "\n"
              << "usage: hostbench --workload train-dgcn|replay-sweep "
                 "[--seed N] [--seconds S] [--trace 0|1]\n"
                 "                 [--expected DIR] [--chrome-trace FILE] "
                 "[--git-sha SHA]\n"
                 "                 [--write-expected FILE --steps N]\n";
    std::exit(2);
}

Args
parseArgs(int argc, char **argv)
{
    Args args;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc)
            usage("missing value for " + flag);
        const std::string value = argv[++i];
        char *end = nullptr;
        auto number = [&]() {
            const double v = std::strtod(value.c_str(), &end);
            if (end == value.c_str() || *end != '\0' || !std::isfinite(v))
                usage("bad number for " + flag + ": " + value);
            return v;
        };
        if (flag == "--workload")
            args.workload = value;
        else if (flag == "--seed") {
            args.seed = std::strtoull(value.c_str(), &end, 10);
            if (value.empty() || *end != '\0' || value[0] == '-')
                usage("bad seed: " + value);
        }
        else if (flag == "--seconds")
            args.seconds = number();
        else if (flag == "--trace")
            args.trace = number() != 0;
        else if (flag == "--expected")
            args.expectedDir = value;
        else if (flag == "--chrome-trace")
            args.chromeTrace = value;
        else if (flag == "--write-expected")
            args.writeExpected = value;
        else if (flag == "--steps")
            args.expectedSteps = static_cast<int>(number());
        else if (flag == "--git-sha")
            args.gitSha = value;
        else
            usage("unknown flag " + flag);
    }
    if (args.workload != "train-dgcn" && args.workload != "replay-sweep")
        usage("unknown workload '" + args.workload + "'");
    if (args.seconds <= 0)
        usage("--seconds must be positive");
    return args;
}

/** Peak resident set (VmHWM) of this process, in MiB. */
double
peakRssMib()
{
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line)) {
        if (line.rfind("VmHWM:", 0) == 0)
            return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
    return 0;
}

/**
 * The simulated outputs of a step, summed from the device's kernel
 * records; also counts the launches that were simulated in detail.
 */
class SimTally : public KernelObserver
{
  public:
    explicit SimTally(int detail_limit) : detailLimit_(detail_limit) {}

    void
    onKernel(const KernelRecord &r) override
    {
        ++launches;
        if (r.invocation < detailLimit_)
            ++detailed;
        kernelSec += r.timeSec;
        l1Hits += r.l1Hits;
        l2Hits += r.l2Hits;
        l2Accesses += r.l2Accesses;
    }
    void onTransfer(const TransferRecord &) override {}

    void
    reset()
    {
        launches = detailed = 0;
        kernelSec = l1Hits = l2Hits = l2Accesses = 0;
    }

    int64_t launches = 0;
    int64_t detailed = 0;
    double kernelSec = 0;
    double l1Hits = 0;
    double l2Hits = 0;
    double l2Accesses = 0;

  private:
    int detailLimit_;
};

/** Host time of every IterationBegin mark a (replaying) device emits. */
class MarkClock : public KernelObserver
{
  public:
    void onKernel(const KernelRecord &) override {}
    void onTransfer(const TransferRecord &) override {}
    void
    onPhase(PhaseMark mark) override
    {
        if (mark == PhaseMark::IterationBegin)
            marks.push_back(Clock::now());
    }

    std::vector<Clock::time_point> marks;
};

/** What a workload's timed loop measured. */
struct Timed
{
    std::vector<double> stepMs;
    int64_t launches = 0;
    int64_t detailed = 0;    ///< launches simulated in detail
    double l2Accesses = 0;
    int64_t attempted = 0;
    int64_t failed = 0;
    double setupSec = 0; ///< median over the run's set-ups
};

/** Counts a step and logs the first few failures. */
void
tally(Timed &t, const std::string &failure)
{
    ++t.attempted;
    if (failure.empty())
        return;
    if (++t.failed <= 5)
        std::cerr << "hostbench: FAILED " << failure << "\n";
}

/** Stop a timed loop? Always runs at least `min_steps`. */
bool
loopDone(const Timed &t, Clock::time_point begin, double seconds,
         size_t min_steps)
{
    const double elapsed = secondsSince(begin);
    if (elapsed >= kMaxLoopSec)
        return true;
    return elapsed >= seconds && t.stepMs.size() >= min_steps;
}

// ---------------------------------------------------------------------
// train-dgcn

/**
 * Some DeepGCN kernel names launch once per step, so it takes
 * detailSampleLimit (6) steps before no launch is simulated in detail.
 */
constexpr size_t kWarmupSteps = 6;

/**
 * The per-step output check. Steps are numbered in the order a run
 * makes them, across all its set-ups: every run makes the same set-ups
 * in the same order, and the device addresses the cache model hashes
 * (hence every cache figure) depend on that history, not only on the
 * set-up at hand. `record` regenerates the table instead of comparing.
 */
struct StepCheck
{
    std::vector<StepOutputs> table;
    bool compare = false; ///< only the default seed has a table to match
    std::vector<StepOutputs> *record = nullptr;
    size_t next = 0;

    /** No expected values left: a run stops stepping here. */
    bool
    exhausted() const
    {
        return record == nullptr && next >= table.size();
    }

    /** Check (or record) the next step; returns why it failed. */
    std::string
    operator()(const StepOutputs &out)
    {
        const size_t step = next++;
        if (record != nullptr) {
            record->push_back(out);
            return {};
        }
        return hostbench::checkStep(out, step, compare ? &table : nullptr);
    }
};

/** One set-up workload bound to a fresh device. */
class TrainRun
{
  public:
    TrainRun(uint64_t seed, DeviceTraceHook *hook)
        : device_(GpuConfig::v100(), seed),
          tally_(device_.config().detailSampleLimit)
    {
        workload_ = BenchmarkSuite::create(kModel);
        device_.addObserver(&tally_);
        device_.setTraceHook(hook);
        WorkloadConfig cfg;
        cfg.seed = seed;
        cfg.scale = kScale;
        const Clock::time_point begin = Clock::now();
        {
            GNN_SPAN("bench.workload_setup");
            workload_->setup(cfg);
        }
        workloadSetupMs = secondsSince(begin) * 1e3;
    }

    /** Attach (or, with nullptr, detach) the trace recorder. */
    void setTraceHook(DeviceTraceHook *hook) { device_.setTraceHook(hook); }

    /** One training step, with its simulated outputs. */
    StepOutputs
    step()
    {
        ContextGuard guard(&device_, &defaultAllocator());
        device_.markIterationBegin();
        tally_.reset();
        const float loss = workload_->trainIteration();
        StepOutputs out;
        out.lossBits = hostbench::floatBits(loss);
        out.launches = tally_.launches;
        out.kernelBits = hostbench::doubleBits(tally_.kernelSec);
        out.l1HitBits = hostbench::doubleBits(tally_.l1Hits);
        out.l2HitBits = hostbench::doubleBits(tally_.l2Hits);
        return out;
    }

    const SimTally &lastStep() const { return tally_; }

    double workloadSetupMs = 0;

  private:
    std::unique_ptr<Workload> workload_;
    GpuDevice device_;
    SimTally tally_;
};

/** Create, Workload::setup and warm up; checks the warm-up steps. */
std::unique_ptr<TrainRun>
setUpTrain(uint64_t seed, DeviceTraceHook *hook,
           StepCheck &check, Timed &t)
{
    GNN_SPAN("bench.setup");
    auto run = std::make_unique<TrainRun>(seed, hook);
    for (size_t i = 0; i < kWarmupSteps; ++i) {
        GNN_SPAN("bench.warmup");
        tally(t, check(run->step()));
    }
    return run;
}

/**
 * Timed closed loop over one set-up run. At the default seed a timed
 * step also fails if any of its launches was simulated in detail:
 * warm-up must absorb detailed sampling. Other seeds draw batches of
 * shapes the warm-up never saw (kernel names carry shapes), so there
 * the count is reported, not checked.
 */
void
timeTrain(TrainRun &run, StepCheck &check, double seconds,
          size_t min_steps, Timed &t)
{
    const Clock::time_point begin = Clock::now();
    while (!loopDone(t, begin, seconds, min_steps) && !check.exhausted()) {
        const Clock::time_point s = Clock::now();
        StepOutputs out;
        {
            GNN_SPAN("bench.step");
            out = run.step();
        }
        t.stepMs.push_back(secondsSince(s) * 1e3);
        const SimTally &sim = run.lastStep();
        t.launches += out.launches;
        t.detailed += sim.detailed;
        t.l2Accesses += sim.l2Accesses;
        std::string why = check(out);
        if (why.empty() && check.compare && sim.detailed != 0)
            why = "step " + std::to_string(check.next - 1) + ": " +
                  std::to_string(sim.detailed) +
                  " launches simulated in detail in a timed step";
        tally(t, why);
    }
}

// ---------------------------------------------------------------------
// replay-sweep

std::vector<GpuConfig>
sweepConfigs()
{
    std::vector<GpuConfig> configs;
    for (double mib : kSweepL2Mib) {
        GpuConfig cfg = GpuConfig::v100();
        cfg.l2SizeBytes = static_cast<uint64_t>(mib * MiB);
        configs.push_back(cfg);
    }
    return configs;
}

/** The outputs of one sweep point, in the shape the checker compares. */
StepOutputs
pointOutputs(const trace::ReplayResult &r)
{
    double l1 = 0, l2 = 0;
    for (size_t c = 0; c < kNumOpClasses; ++c) {
        const OpClassStats &s = r.profiler.classStats(static_cast<OpClass>(c));
        l1 += s.l1Hits;
        l2 += s.l2Hits;
    }
    StepOutputs out;
    out.lossBits = hostbench::floatBits(r.losses.empty() ? 0.f
                                                         : r.losses.back());
    out.launches = r.profiler.totalLaunches();
    out.kernelBits = hostbench::doubleBits(r.profiler.totalKernelTimeSec());
    out.l1HitBits = hostbench::doubleBits(l1);
    out.l2HitBits = hostbench::doubleBits(l2);
    return out;
}

std::vector<StepOutputs>
sweepOutputs(const std::vector<trace::ReplayResult> &results)
{
    std::vector<StepOutputs> out;
    for (const trace::ReplayResult &r : results)
        out.push_back(pointOutputs(r));
    return out;
}

/** A recorded, round-tripped DeepGCN run and what producing it cost. */
struct SweepSetup
{
    trace::RecordedTrace trace; ///< decoded from its own encoding
    WorkloadProfile live;       ///< the recording run's profile
    std::vector<StepOutputs> warm; ///< the warm-up sweep
    double recordSec = 0;
    double encodeMs = 0;
    double decodeMs = 0;
    size_t bytes = 0;
};

/** The points of one set-up's warm-up sweep against the table. */
std::string
checkWarmSweep(const std::vector<StepOutputs> &points, StepCheck &check)
{
    std::string why;
    for (const StepOutputs &p : points) {
        const std::string failure = check(p); // consumes one table row
        if (why.empty() && !failure.empty())
            why = "warm-up sweep " + failure;
    }
    return why;
}

/** Record, encode, decode, and one warm-up sweep (checked). */
SweepSetup
setUpSweep(uint64_t seed, const std::vector<GpuConfig> &configs,
           StepCheck &check, Timed &t)
{
    GNN_SPAN("bench.setup");
    SweepSetup s;
    RunOptions opt;
    opt.seed = seed;
    opt.scale = kScale;
    opt.warmupIterations = 0;
    opt.iterations = 1;

    Clock::time_point begin = Clock::now();
    trace::RecordedTrace recorded;
    {
        GNN_SPAN("bench.record");
        recorded = recordWorkloadTrace(kModel, opt, &s.live);
    }
    s.recordSec = secondsSince(begin);

    begin = Clock::now();
    std::vector<uint8_t> bytes;
    {
        GNN_SPAN("bench.encode");
        bytes = trace::serializeTrace(recorded);
    }
    s.encodeMs = secondsSince(begin) * 1e3;
    s.bytes = bytes.size();

    begin = Clock::now();
    {
        GNN_SPAN("bench.decode");
        s.trace = trace::parseTrace(bytes, "hostbench");
    }
    s.decodeMs = secondsSince(begin) * 1e3;

    {
        GNN_SPAN("bench.warmup");
        s.warm = sweepOutputs(trace::sweepTrace(s.trace, configs));
    }
    tally(t, checkWarmSweep(s.warm, check));
    return s;
}

/**
 * The recording-config replay must equal the live recording bitwise.
 * Returns the replay's host ms per recorded measured iteration.
 */
double
checkFidelity(const SweepSetup &s, std::string &failure)
{
    MarkClock clock;
    const trace::ReplayResult r =
        trace::replayTrace(s.trace, s.trace.header.config, {&clock});
    const Clock::time_point end = Clock::now();

    const Profiler &live = s.live.profiler;
    const bool same =
        r.profiler.totalLaunches() == live.totalLaunches() &&
        r.profiler.totalKernelTimeSec() == live.totalKernelTimeSec() &&
        r.profiler.l1HitRate() == live.l1HitRate() &&
        r.profiler.l2HitRate() == live.l2HitRate() &&
        r.profiler.avgIpc() == live.avgIpc() &&
        r.wallTimeSec == s.live.wallTimeSec && r.losses == s.live.losses;
    const bool finite =
        std::all_of(s.live.losses.begin(), s.live.losses.end(),
                    [](float v) { return std::isfinite(v); });
    if (!same)
        failure = "recording-config replay differs from the live run";
    else if (!finite)
        failure = "recorded run has a non-finite loss";

    if (clock.marks.empty())
        return 0;
    return std::chrono::duration<double, std::milli>(end -
                                                     clock.marks.front())
               .count() /
           static_cast<double>(clock.marks.size());
}

/**
 * Timed closed loop of sweeps. Each must repeat the set-up's (checked)
 * warm-up sweep exactly, and all fail if the recording-config replay
 * did not reproduce the live run (`fidelity` holds why).
 */
void
timeSweep(const SweepSetup &s, const std::vector<GpuConfig> &configs,
          const std::string &fidelity, double seconds, size_t min_steps,
          Timed &t)
{
    const Clock::time_point begin = Clock::now();
    while (!loopDone(t, begin, seconds, min_steps)) {
        const Clock::time_point start = Clock::now();
        std::vector<trace::ReplayResult> results;
        {
            GNN_SPAN("bench.step");
            results = trace::sweepTrace(s.trace, configs);
        }
        t.stepMs.push_back(secondsSince(start) * 1e3);
        const std::vector<StepOutputs> got = sweepOutputs(results);
        std::string why = fidelity;
        for (size_t p = 0; p < got.size(); ++p) {
            t.launches += got[p].launches;
            for (size_t c = 0; c < kNumOpClasses; ++c)
                t.l2Accesses += results[p]
                                    .profiler
                                    .classStats(static_cast<OpClass>(c))
                                    .l2Accesses;
            if (why.empty() && !(got[p] == s.warm[p]))
                why = "sweep " + std::to_string(t.stepMs.size()) +
                      " point " + std::to_string(p) +
                      ": differs from the warm-up sweep";
        }
        tally(t, why);
    }
}

/** Launches the replays simulate in detail: those recorded with warps. */
int64_t
detailedLaunches(const trace::RecordedTrace &trace)
{
    int64_t n = 0;
    for (const trace::TraceEvent &e : trace.events) {
        if (const auto *l = std::get_if<trace::LaunchEvent>(&e))
            n += l->warps.empty() ? 0 : 1;
    }
    return n;
}

// ---------------------------------------------------------------------
// Traced runs: the per-layer ledger

std::vector<hostbench::Span>
toSpans(const std::vector<obs::ThreadSpans> &threads, int64_t &dropped)
{
    std::vector<hostbench::Span> spans;
    for (const obs::ThreadSpans &t : threads) {
        dropped += t.dropped;
        for (const obs::SpanEvent &e : t.spans)
            spans.push_back({t.lane, e.name, e.startUs, e.durUs});
    }
    return spans;
}

bool
isWorkerLane(int lane)
{
    return lane >= 1 && lane < 1000; // obs::SpanTracer's lane layout
}

bool
startsWith(const std::string &s, const char *prefix)
{
    return s.rfind(prefix, 0) == 0;
}

/** The ledger's layer for a span name (host self time is split so). */
const char *
layerOf(const std::string &name)
{
    if (name == "op.gemm" || name == "op.gemm.chunk")
        return "ops.gemm_ms";
    if (name == "op.row_lookup" || name == "op.scatter_add" ||
        startsWith(name, "op.index") || name == "op.segment_reduce")
        return "ops.gather_scatter_ms";
    if (startsWith(name, "op.batchnorm") || name == "op.layernorm")
        return "ops.norm_ms";
    if (startsWith(name, "op.softmax") ||
        startsWith(name, "op.log_softmax") || startsWith(name, "op.reduce."))
        return "ops.softmax_reduce_ms";
    if (startsWith(name, "op."))
        return "ops.other_ms";
    if (name == "autograd.backward")
        return "tensor.backward_self_ms";
    if (startsWith(name, "optim."))
        return "nn.optim_ms";
    if (startsWith(name, "loss."))
        return "nn.loss_ms";
    if (name == "trace.replay")
        return "trace.replay_ms";
    if (name == "bench.step")
        return "core.step_self_ms";
    return "other_ms";
}

/** Metric name -> (value, unit), printed in insertion order. */
class MetricSet
{
  public:
    void
    add(const std::string &name, double value, const char *unit)
    {
        items_.push_back({name, value, unit});
    }

    /** Every value with all its digits; false if one is not finite. */
    bool
    write(std::string &out) const
    {
        bool finite = true;
        out += '{';
        for (const Item &i : items_) {
            char value[64];
            finite = finite && std::isfinite(i.value);
            std::snprintf(value, sizeof value, "%.17g",
                          std::isfinite(i.value) ? i.value : 0.0);
            if (out.back() != '{')
                out += ", ";
            out += "\"" + i.name + "\": {\"value\": " + value +
                   ", \"unit\": \"" + i.unit + "\"}";
        }
        out += '}';
        return finite;
    }

  private:
    struct Item
    {
        std::string name;
        double value;
        const char *unit;
    };
    std::vector<Item> items_;
};

/** Span-derived layer metrics over the timed steps of a traced phase. */
struct Ledger
{
    std::map<std::string, double> allLanesMs; ///< per layer, per step
    std::map<std::string, double> hostMs;     ///< host lane, per step
    double stepMs = 0;         ///< driver clock, per step
    double gapFrac = 0;        ///< |host self sum - step time| / step time
    double unattributedFrac = 0;
    double poolBusyFrac = 0;
    double pointMs = 0;        ///< median trace.replay span
    int64_t dropped = 0;
};

Ledger
buildLedger(const std::vector<obs::ThreadSpans> &threads, const Timed &t)
{
    Ledger ledger;
    const std::vector<hostbench::Span> spans =
        toSpans(threads, ledger.dropped);
    const double steps = static_cast<double>(t.stepMs.size());
    double step_total_ms = 0;
    for (double ms : t.stepMs)
        step_total_ms += ms;
    ledger.stepMs = step_total_ms / steps;

    for (const auto &[name, us] : hostbench::selfTimesUs(spans))
        ledger.allLanesMs[layerOf(name)] += us / 1e3 / steps;

    std::vector<hostbench::Span> host, workers;
    std::vector<double> points;
    double step_span_us = 0;
    for (const hostbench::Span &s : spans) {
        if (s.lane == 0)
            host.push_back(s);
        else if (isWorkerLane(s.lane))
            workers.push_back(s);
        if (s.name == "trace.replay")
            points.push_back(s.durUs / 1e3);
        if (s.lane == 0 && s.name == "bench.step")
            step_span_us += s.durUs;
    }
    double host_sum_ms = 0;
    for (const auto &[name, us] : hostbench::selfTimesUs(host)) {
        ledger.hostMs[layerOf(name)] += us / 1e3 / steps;
        host_sum_ms += us / 1e3 / steps;
    }
    ledger.gapFrac = std::fabs(host_sum_ms - ledger.stepMs) / ledger.stepMs;
    ledger.unattributedFrac =
        step_span_us > 0 ? ledger.hostMs["core.step_self_ms"] * steps *
                               1e3 / step_span_us
                         : 0;
    if (kPoolThreads > 1)
        ledger.poolBusyFrac = hostbench::outermostUs(workers) / 1e3 /
                              ((kPoolThreads - 1) * step_total_ms);
    ledger.pointMs = hostbench::median(points);
    return ledger;
}

void
printLedger(const Ledger &l, std::ostream &os)
{
    os << "# ledger (host lane self time, ms per step)\n";
    double sum = 0;
    for (const auto &[layer, ms] : l.hostMs) {
        char line[128];
        std::snprintf(line, sizeof line, "#   %-26s %10.3f\n",
                      layer.c_str(), ms);
        os << line;
        sum += ms;
    }
    char line[160];
    std::snprintf(line, sizeof line,
                  "#   %-26s %10.3f  (driver step time %.3f, gap %.2f%%, "
                  "limit %.0f%%)\n",
                  "sum", sum, l.stepMs, 100 * l.gapFrac,
                  100 * kLedgerTolerance);
    os << line;
}

/** Spans recorded so far, then an empty buffer for the next window. */
std::vector<obs::ThreadSpans>
takeSpans()
{
    obs::SpanTracer &tracer = obs::SpanTracer::instance();
    std::vector<obs::ThreadSpans> spans = tracer.collect();
    tracer.clear();
    return spans;
}

struct TracedPhase
{
    Timed timed;
    std::vector<obs::ThreadSpans> setupSpans;
    std::vector<obs::ThreadSpans> stepSpans;
};

void
writeChromeTrace(const std::string &path, const TracedPhase &phase)
{
    if (path.empty())
        return;
    ChromeTraceWriter writer;
    writer.addHostSpans(phase.setupSpans);
    writer.addHostSpans(phase.stepSpans);
    writer.write(path);
    std::cout << "# chrome trace: " << path << "\n";
}

double
medianMs(const Timed &t)
{
    return hostbench::median(t.stepMs);
}

/** Counters read around a traced phase's timed steps. */
struct Counters
{
    AllocStats alloc;
    ops::DispatchStats dispatch;

    static Counters
    read()
    {
        return {defaultAllocator().stats(),
                ops::Dispatch::instance().stats()};
    }
};

void
addLayerMetrics(MetricSet &m, const Ledger &l, const Counters &before,
                const Counters &after, double steps)
{
    auto ms = [&](const char *layer) {
        auto it = l.allLanesMs.find(layer);
        return it == l.allLanesMs.end() ? 0.0 : it->second;
    };
    m.add("ops.gemm_ms", ms("ops.gemm_ms"), "ms");
    m.add("ops.gather_scatter_ms", ms("ops.gather_scatter_ms"), "ms");
    m.add("ops.norm_ms", ms("ops.norm_ms"), "ms");
    m.add("ops.softmax_reduce_ms", ms("ops.softmax_reduce_ms"), "ms");
    const int64_t tiled = after.dispatch.gemmTiled - before.dispatch.gemmTiled;
    const int64_t gemms =
        tiled + after.dispatch.gemmNaive - before.dispatch.gemmNaive;
    m.add("ops.gemm_tiled_frac",
          gemms > 0 ? static_cast<double>(tiled) / gemms : 0.0, "fraction");
    m.add("tensor.backward_self_ms", ms("tensor.backward_self_ms"), "ms");
    m.add("core.step_self_ms", ms("core.step_self_ms"), "ms");
    m.add("nn.optim_ms", ms("nn.optim_ms"), "ms");
    m.add("base.alloc_requests",
          static_cast<double>(after.alloc.requests - before.alloc.requests) /
              steps,
          "count");
    m.add("base.alloc_heap_calls",
          static_cast<double>(after.alloc.heapCalls -
                              before.alloc.heapCalls) /
              steps,
          "count");
    m.add("base.alloc_peak_mb",
          static_cast<double>(after.alloc.bytesPeak) / MiB, "MiB");
    m.add("base.pool_busy_frac", l.poolBusyFrac, "fraction");
}

// ---------------------------------------------------------------------
// Runs

struct Result
{
    bool correct = true;
    int64_t attempted = 0;
    int64_t failed = 0;
    MetricSet metrics;
};

void
addEndToEnd(Result &r, const Timed &t)
{
    const auto tail = hostbench::tailPercentile(t.stepMs, kTailBeyond);
    double total_ms = 0;
    for (double ms : t.stepMs)
        total_ms += ms;
    r.metrics.add("setup_s", t.setupSec, "s");
    r.metrics.add("step_ms.p50", medianMs(t), "ms");
    r.metrics.add("step_ms.tail", tail ? tail->value : 0, "ms");
    r.metrics.add("launches_per_s",
                  total_ms > 0 ? t.launches / (total_ms / 1e3) : 0, "1/s");
    r.metrics.add("peak_rss_mb", peakRssMib(), "MiB");
    if (tail) {
        std::printf("# step_ms.tail is p%.1f of %zu timed steps (%zu "
                    "beyond it)\n",
                    tail->percentile, tail->count, tail->beyond);
    } else {
        std::printf("# step_ms.tail: only %zu timed steps\n",
                    t.stepMs.size());
        r.correct = false;
    }
}

Result
endToEndResult(const Timed &t)
{
    Result r;
    addEndToEnd(r, t);
    r.attempted = t.attempted;
    r.failed = t.failed;
    return r;
}

/** What only one kind of workload can say about its layers. */
struct WorkloadLayers
{
    double launches = 0;   ///< per timed step
    double detailed = 0;   ///< per timed step
    double l2Accesses = 0; ///< per timed step
    double replayMs = 0;   ///< per recorded step, on the recording config
    double recordSec = 0;
    double encodeMs = 0;
    double decodeMs = 0;
    double bytes = 0;
    double modelSetupMs = 0;
    std::string failure;
};

/** The per-layer metrics of a traced run, in BENCHMARK.json order. */
Result
tracedResult(const Args &args, const TracedPhase &phase,
             const Timed &untraced, const WorkloadLayers &w,
             const Counters &before, const Counters &after)
{
    const Timed &timed = phase.timed;
    const double steps = static_cast<double>(timed.stepMs.size());
    const Ledger ledger = buildLedger(phase.stepSpans, timed);
    printLedger(ledger, std::cout);
    writeChromeTrace(args.chromeTrace, phase);

    const double traced_p50 = medianMs(timed);
    Result r;
    MetricSet &m = r.metrics;
    m.add("sim.launches", w.launches, "count");
    m.add("sim.detailed_launches", w.detailed, "count");
    m.add("sim.l2_accesses", w.l2Accesses, "count");
    m.add("sim.replay_ms", w.replayMs, "ms");
    m.add("sim.replay_share", w.replayMs / traced_p50, "fraction");
    std::printf("# sim.replay_share base: traced step_ms.p50 = %.3f ms\n",
                traced_p50);
    addLayerMetrics(m, ledger, before, after, steps);
    m.add("trace.record_s", w.recordSec, "s");
    m.add("trace.encode_ms", w.encodeMs, "ms");
    m.add("trace.decode_ms", w.decodeMs, "ms");
    m.add("trace.bytes", w.bytes, "bytes");
    m.add("trace.point_ms", ledger.pointMs, "ms");
    m.add("models.setup_ms", w.modelSetupMs, "ms");
    m.add("obs.trace_overhead_frac", traced_p50 / medianMs(untraced) - 1,
          "fraction");
    m.add("obs.unattributed_frac", ledger.unattributedFrac, "fraction");
    m.add("obs.ledger_gap_frac", ledger.gapFrac, "fraction");

    r.attempted = untraced.attempted + timed.attempted;
    r.failed = untraced.failed + timed.failed;
    if (!w.failure.empty()) {
        std::cerr << "hostbench: " << w.failure << "\n";
        r.correct = false;
    }
    if (ledger.gapFrac > kLedgerTolerance || ledger.dropped > 0) {
        std::cerr << "hostbench: ledger does not close (gap "
                  << ledger.gapFrac << ", dropped spans " << ledger.dropped
                  << ")\n";
        r.correct = false;
    }
    return r;
}

void
setSpansEnabled(bool on)
{
    obs::SpanTracer::instance().setEnabled(on);
}

/**
 * Set up kSetups times, each on a fresh workload and device, and time
 * the steps of the last. A traced run then times the same set-up twice:
 * untraced steps (the base of the tracing overhead), then traced ones.
 */
Result
runTrain(const Args &args, StepCheck &check)
{
    Timed t;
    TracedPhase phase;
    trace::TraceRecorder recorder;
    std::vector<double> setup_sec;
    std::unique_ptr<TrainRun> run;
    for (int i = 0; i < kSetups; ++i) {
        const bool traced = args.trace && i == kSetups - 1;
        run.reset();
        setSpansEnabled(traced);
        const Clock::time_point begin = Clock::now();
        run = setUpTrain(args.seed, traced ? &recorder : nullptr, check, t);
        setup_sec.push_back(secondsSince(begin));
    }
    t.setupSec = hostbench::median(setup_sec);
    if (!args.trace) {
        timeTrain(*run, check, args.seconds, kMinSteps, t);
        return endToEndResult(t);
    }
    phase.setupSpans = takeSpans();
    setSpansEnabled(false);

    // The recorder sits out the untraced steps. Replay skips them too,
    // which changes its cache contents but not what a step costs.
    run->setTraceHook(nullptr);
    Timed untraced;
    timeTrain(*run, check, args.seconds / 2, kMinTracedSteps, untraced);
    run->setTraceHook(&recorder);
    setSpansEnabled(true);
    const Counters before = Counters::read();
    timeTrain(*run, check, args.seconds / 2, kMinTracedSteps, phase.timed);
    const Counters after = Counters::read();
    phase.stepSpans = takeSpans();
    setSpansEnabled(false);

    trace::TraceHeader header;
    header.seed = args.seed;
    header.config = GpuConfig::v100();
    const trace::RecordedTrace recorded = recorder.finish(header);
    MarkClock clock;
    trace::replayTrace(recorded, header.config, {&clock});
    const Clock::time_point replay_end = Clock::now();

    const Timed &timed = phase.timed;
    const size_t steps = timed.stepMs.size();
    WorkloadLayers w;
    w.launches = static_cast<double>(timed.launches) / steps;
    w.detailed = static_cast<double>(timed.detailed) / steps;
    w.l2Accesses = timed.l2Accesses / steps;
    w.modelSetupMs = run->workloadSetupMs;
    // The recording holds the warm-up steps, then the traced ones.
    if (clock.marks.size() == kWarmupSteps + steps) {
        w.replayMs = std::chrono::duration<double, std::milli>(
                         replay_end - clock.marks[kWarmupSteps])
                         .count() /
                     static_cast<double>(steps);
    } else {
        w.failure = "replay of the traced steps saw " +
                    std::to_string(clock.marks.size()) +
                    " iteration marks, expected " +
                    std::to_string(kWarmupSteps + steps);
    }
    Result r = tracedResult(args, phase, untraced, w, before, after);
    r.attempted += t.attempted;
    r.failed += t.failed;
    return r;
}

/** As runTrain, with a recorded DeepGCN run swept instead of trained. */
Result
runSweep(const Args &args, StepCheck &check)
{
    const std::vector<GpuConfig> configs = sweepConfigs();
    Timed t;
    TracedPhase phase;
    std::vector<double> setup_sec;
    SweepSetup s;
    for (int i = 0; i < kSetups; ++i) {
        s = SweepSetup{};
        setSpansEnabled(args.trace && i == kSetups - 1);
        const Clock::time_point begin = Clock::now();
        s = setUpSweep(args.seed, configs, check, t);
        setup_sec.push_back(secondsSince(begin));
    }
    t.setupSec = hostbench::median(setup_sec);
    phase.setupSpans = takeSpans();
    setSpansEnabled(false);

    std::string fidelity;
    const double replay_ms = checkFidelity(s, fidelity);
    if (!args.trace) {
        timeSweep(s, configs, fidelity, args.seconds, kMinSteps, t);
        return endToEndResult(t);
    }

    Timed untraced;
    timeSweep(s, configs, fidelity, args.seconds / 2, kMinTracedSteps,
              untraced);
    setSpansEnabled(true);
    const Counters before = Counters::read();
    timeSweep(s, configs, fidelity, args.seconds / 2, kMinTracedSteps,
              phase.timed);
    const Counters after = Counters::read();
    phase.stepSpans = takeSpans();
    setSpansEnabled(false);

    const Timed &timed = phase.timed;
    const size_t steps = timed.stepMs.size();
    WorkloadLayers w;
    w.launches = static_cast<double>(timed.launches) / steps;
    w.detailed =
        static_cast<double>(detailedLaunches(s.trace) * configs.size());
    w.l2Accesses = timed.l2Accesses / steps;
    w.replayMs = replay_ms;
    w.recordSec = s.recordSec;
    w.encodeMs = s.encodeMs;
    w.decodeMs = s.decodeMs;
    w.bytes = static_cast<double>(s.bytes);
    Result r = tracedResult(args, phase, untraced, w, before, after);
    r.attempted += t.attempted;
    r.failed += t.failed;
    return r;
}

/**
 * Regenerate the expected values at the run's seed: the same set-ups
 * in the same order as a measuring run, then `--steps` steps in all.
 */
int
writeExpected(const Args &args)
{
    std::vector<StepOutputs> rows;
    StepCheck check;
    check.record = &rows;
    Timed t;
    if (args.workload == "replay-sweep") {
        const std::vector<GpuConfig> configs = sweepConfigs();
        for (int i = 0; i < kSetups; ++i)
            setUpSweep(args.seed, configs, check, t);
    } else {
        std::unique_ptr<TrainRun> run;
        for (int i = 0; i < kSetups; ++i) {
            run.reset();
            run = setUpTrain(args.seed, nullptr, check, t);
        }
        while (rows.size() < static_cast<size_t>(args.expectedSteps))
            check(run->step());
    }
    std::ofstream out(args.writeExpected);
    out << "# " << args.workload << " seed " << args.seed
        << ": loss launches kernel_s l1_hits l2_hits (hex bits), one row "
           "per step in run order\n";
    for (const StepOutputs &row : rows)
        out << hostbench::formatOutputs(row) << "\n";
    out.close();
    if (!out) {
        std::cerr << "hostbench: cannot write " << args.writeExpected
                  << "\n";
        return 1;
    }
    return 0;
}

/** The expected values for this run; only the default seed compares. */
StepCheck
loadCheck(const Args &args)
{
    StepCheck check;
    const std::string path = args.expectedDir + "/" + args.workload + ".txt";
    check.table = hostbench::readExpected(path);
    check.compare = args.seed == kDefaultSeed;
    if (check.table.empty())
        std::cerr << "hostbench: no expected values in " << path << "\n";
    return check;
}

std::string
fingerprint(const Args &args)
{
    obs::JsonWriter w;
    w.beginObject();
    w.key("workload").value(args.workload);
    w.key("seed").value(static_cast<int64_t>(args.seed));
    w.key("trace").value(args.trace);
    w.key("git_sha").value(args.gitSha);
    w.key("nproc").value(
        static_cast<int64_t>(std::thread::hardware_concurrency()));
    w.key("pool_threads").value(
        static_cast<int64_t>(ThreadPool::instance().threadCount()));
    w.key("avx2").value(ops::Dispatch::instance().stats().simd);
    w.key("compiler").value(HOSTBENCH_COMPILER);
    w.key("build_type").value(HOSTBENCH_BUILD_TYPE);
    w.endObject();
    return w.str();
}

} // namespace

int
main(int argc, char **argv)
{
    const Args args = parseArgs(argc, argv);
    ThreadPool::instance().setThreadCount(kPoolThreads);
    setInformEnabled(false);

    if (!args.writeExpected.empty())
        return writeExpected(args);

    Result r;
    try {
        StepCheck check = loadCheck(args);
        r = args.workload == "replay-sweep"
                ? runSweep(args, check)
                : runTrain(args, check);
    } catch (const std::exception &e) {
        std::cerr << "hostbench: " << e.what() << "\n";
        return 1;
    }
    r.correct = r.correct && r.failed == 0 && r.attempted > 0;

    std::cout << "# host " << fingerprint(args) << "\n";
    std::cout << "# " << args.workload << ": " << r.failed << " failed of "
              << r.attempted << " attempted steps\n";
    std::string metrics;
    if (!r.metrics.write(metrics)) {
        std::cerr << "hostbench: a metric is not finite\n";
        r.correct = false;
    }
    std::cout << "{\"correct\": " << (r.correct ? "true" : "false")
              << ", \"attempted\": " << r.attempted
              << ", \"failed\": " << r.failed << ", \"metrics\": " << metrics
              << "}" << std::endl;
    return r.correct ? 0 : 1;
}
