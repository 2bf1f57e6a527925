/**
 * @file
 * The `gnnmark` command-line driver — the front door a downstream user
 * runs, mirroring the run scripts of the original suite. Each verb in
 * kVerbs declares its positional arguments, and its command function
 * declares its flags once, bound to the library option structs they
 * set (cli.hh). `gnnmark` alone lists the verbs; a usage error prints
 * the verb's flags and exits 2.
 */

#include <algorithm>
#include <chrono>
#include <iostream>
#include <map>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "base/io.hh"
#include "base/rng.hh"
#include "base/logging.hh"
#include "base/table.hh"
#include "base/thread_pool.hh"
#include "base/units.hh"
#include "cli.hh"
#include "core/characterization.hh"
#include "core/reports.hh"
#include "core/reports_json.hh"
#include "core/suite.hh"
#include "core/time_to_train.hh"
#include "core/trace_capture.hh"
#include "gen/degree_stats.hh"
#include "gen/edge_stream.hh"
#include "gen/report.hh"
#include "gen/stream_train.hh"
#include "models/ego_net.hh"
#include "multigpu/ddp.hh"
#include "obs/json.hh"
#include "obs/span.hh"
#include "obs/telemetry.hh"
#include "ops/dispatch.hh"
#include "ops/exec_context.hh"
#include "ops/gemm.hh"
#include "ops/spmm.hh"
#include "profiler/chrome_trace.hh"
#include "profiler/profiler.hh"
#include "tensor/sparse.hh"
#include "serve/cost_model.hh"
#include "serve/server.hh"
#include "sim/fault_plan_io.hh"
#include "sim/gpu_device.hh"
#include "trace/reader.hh"
#include "trace/toolkit.hh"

using namespace gnnmark;

namespace {

using cli::Flag;

/** @{ Flags several verbs share; kFlag(field) binds one to a field. */
const Flag kScale{"--scale", "S", "dataset scale factor",
                  cli::aboveUpTo(0, kMaxScale)};
const Flag kIters{"--iters", "N", "measured iterations", cli::atLeast(1)};
const Flag kInference{"--inference", "", "forward passes only"};
const Flag kMemstats{"--memstats", "", "append allocator stats"};
const Flag kOpstats{"--opstats", "", "append operator-dispatch stats"};
const Flag kOverlap{"--overlap", "on|off", "overlap all-reduce with backward"};
const Flag kSeed{"--seed", "N", "random seed"};
const Flag kPlan{"--plan", "FILE", "load an explicit fault plan"};
const Flag kSavePlan{"--save-plan", "FILE", "write the plan it ran"};
/** @} */

/**
 * Exporting telemetry or a chrome trace arms host-span recording for
 * the whole process; without either GNN_SPAN stays a single relaxed
 * load and the run is bit-identical to an uninstrumented build.
 */
Flag
armsSpans(Flag flag)
{
    flag.set = [set = std::move(flag.set)](const std::string &v) {
        obs::SpanTracer::instance().setEnabled(true);
        return set(v);
    };
    return flag;
}

/** Report outputs several verbs share; its flags point into it. */
struct Output
{
    bool json = false;
    std::string telemetry; ///< JSONL sink path; empty = none
    std::string chrome;    ///< chrome://tracing path; empty = none
    const Flag jsonFlag =
        Flag{"--json", "", "print JSON, progress to stderr"}(json);
    const Flag telemetryFlag = armsSpans(
        Flag{"--telemetry", "PATH", "append JSONL telemetry"}(telemetry));
    const Flag chromeFlag = armsSpans(
        Flag{"--chrome-trace", "PATH", "write a chrome://tracing file"}(
            chrome));

    Output() = default;
    Output(const Output &) = delete;

    /** In JSON mode stdout stays a single parseable document. */
    std::ostream &
    progress() const
    {
        return json ? std::cerr : std::cout;
    }

    /** The telemetry sink, or null when none was asked for. */
    std::unique_ptr<obs::TelemetrySink>
    openTelemetry() const
    {
        return telemetry.empty()
                   ? nullptr
                   : std::make_unique<obs::TelemetrySink>(telemetry);
    }
};

/** True when `name` is a suite workload. */
bool
isWorkload(const std::string &name)
{
    const std::vector<std::string> names = BenchmarkSuite::workloadNames();
    return std::find(names.begin(), names.end(), name) != names.end();
}

/** Exit through cmd.fail() when `name` is not a suite workload. */
void
requireWorkload(const cli::Command &cmd, const std::string &name)
{
    if (!isWorkload(name)) {
        cmd.fail("unknown workload: " + name + "\nknown workloads: " +
                 join(BenchmarkSuite::workloadNames(), " "));
    }
}

/** Merge the recorded host spans into `chrome` and write it out. */
void
finishChromeTrace(ChromeTraceWriter &chrome, const std::string &path,
                  std::ostream &os)
{
    chrome.addHostSpans(obs::SpanTracer::instance().collect());
    chrome.write(path);
    os << "\nchrome trace (" << chrome.eventCount()
       << " events) written to " << path
       << " — load it in chrome://tracing or Perfetto\n";
}

int
cmdList(cli::Command &cmd)
{
    cmd.parse({});
    reports::printTableOne(std::cout);
    return 0;
}

int
cmdRun(cli::Command &cmd)
{
    RunOptions opt;
    opt.iterations = 6;
    bool memstats = false, opstats = false;
    Output out;
    const std::string workload =
        cmd.parse({kScale(opt.scale), kIters(opt.iterations),
                   kInference(opt.inferenceOnly), kMemstats(memstats),
                   kOpstats(opstats), out.jsonFlag, out.telemetryFlag,
                   out.chromeFlag})
            .front();
    requireWorkload(cmd, workload);
    ChromeTraceWriter chrome;
    if (!out.chrome.empty())
        opt.extraObserver = &chrome;
    std::unique_ptr<obs::TelemetrySink> telemetry = out.openTelemetry();
    opt.telemetry = telemetry.get();
    CharacterizationRunner runner(opt);
    std::ostream &progress = out.progress();
    progress << (opt.inferenceOnly ? "Profiling (inference mode) "
                                   : "Training ")
             << workload << " on the simulated V100...\n\n";

    const double host_begin = obs::SpanTracer::instance().nowUs();
    const WorkloadProfile profile = runner.run(workload);
    const double host_wall_us =
        obs::SpanTracer::instance().nowUs() - host_begin;

    if (out.json) {
        std::cout << reports::figuresJson({profile}) << "\n";
        if (memstats)
            std::cout << reports::memstatsJson({profile}) << "\n";
        if (opstats)
            std::cout << reports::opstatsJson() << "\n";
    } else {
        reports::printWorkloadSummary(profile, std::cout);
        if (memstats)
            reports::printMemstats({profile}, std::cout);
        if (opstats)
            reports::printOpstats(std::cout);
    }
    if (telemetry != nullptr) {
        telemetry->writeRecord(reports::runManifestJson(
            profile, opt, ThreadPool::instance().threadCount(),
            host_wall_us));
        progress << "\ntelemetry (" << telemetry->recordCount()
                 << " records) written to " << telemetry->path() << "\n";
    }
    if (!out.chrome.empty())
        finishChromeTrace(chrome, out.chrome, progress);
    return 0;
}

/** Default points of each sweep parameter (l2 MiB, l1 KiB). */
const std::map<std::string, std::string> kSweepDefaults = {
    {"l1", "64,128,192,256"},
    {"l2", "2,4,6,12"},
    {"sms", "40,60,80,108"},
    {"world", "1,2,4"},
};

/** GPU overrides: positive, and small enough to convert without overflow. */
const cli::Range kGpuValueRange{0, 1e9, true, true};

/** Parse "2,4,6,12"-style sweep points; exits 2 on a bad one. */
std::vector<double>
parsePoints(const cli::Command &cmd, const std::string &list)
{
    std::vector<double> points;
    for (const std::string &item : split(list, ',')) {
        points.push_back(0);
        const std::string problem =
            cli::parseNumber(item, points.back(), kGpuValueRange);
        if (!problem.empty())
            cmd.fail("sweep point " + problem);
    }
    return points;
}

/**
 * Set one sweepable GpuConfig field; returns a printable label. Exits
 * through cmd.fail() when the result is not a GPU the simulator can
 * build.
 */
std::string
applyGpuParam(const cli::Command &cmd, GpuConfig &cfg,
              const std::string &param, double value)
{
    std::string label;
    if (param == "l2") {
        cfg.l2SizeBytes = static_cast<uint64_t>(value * MiB);
        label = strfmt("L2 %g MiB", value);
    } else if (param == "l1") {
        cfg.l1SizeBytes = static_cast<uint64_t>(value * KiB);
        label = strfmt("L1 %g KiB", value);
    } else {
        cfg.numSms = static_cast<int>(value);
        label = strfmt("%d SMs", cfg.numSms);
    }
    const std::string problem = validateConfig(cfg);
    if (!problem.empty())
        cmd.fail(label + ": " + problem);
    return label;
}

/**
 * The world sweep: price a DDP scaling curve over GPU counts.
 * Live runs use the full DdpTrainer measurement; from a trace the
 * recorded kernel stream is replayed once and its per-iteration
 * backward windows feed the overlap model offline (weak-scaling
 * semantics — the recorded stream is the fixed per-GPU work).
 */
int
sweepWorld(const cli::Command &cmd, const std::vector<double> &points,
           const std::string &trace_path, const std::string &workload,
           const RunOptions &opt, const DdpOptions &ddp_options)
{
    std::vector<int> worlds;
    for (double v : points) {
        const int w = static_cast<int>(v);
        if (w < 1)
            cmd.fail("world sweep points must be >= 1");
        worlds.push_back(w);
    }
    const char *overlap = ddp_options.overlapComm ? "on" : "off";

    std::vector<ScalingResult> curve;
    if (!trace_path.empty()) {
        const trace::RecordedTrace trace = trace::readTraceFile(trace_path);
        std::cout << "Sweeping world over the recorded "
                  << trace.header.workload << " stream (overlap "
                  << overlap << ")...\n\n";
        const trace::ReplayResult replay = trace::replayTrace(trace);
        // The sampler-compatibility flag is a property of the model,
        // not of the recorded stream; recover it from the suite.
        bool compatible = true;
        if (isWorkload(trace.header.workload)) {
            compatible = BenchmarkSuite::create(trace.header.workload)
                             ->samplerDdpCompatible();
        } else {
            warn("trace workload '%s' is not in the suite; assuming "
                 "a DDP-compatible sampler (no replication penalty)",
                 trace.header.workload.c_str());
        }
        curve = ddp::scalingFromTimelines(
            Interconnect{}, replay.iterations, replay.epochTimeSec,
            static_cast<double>(replay.iterationsPerEpoch),
            replay.parameterBytes, compatible, worlds, ddp_options);
    } else {
        std::cout << "Sweeping world with live " << workload
                  << " runs (overlap " << overlap << ")...\n\n";
        auto wl = BenchmarkSuite::create(workload);
        WorkloadConfig base;
        base.scale = opt.scale;
        DdpTrainer trainer(ddp_options);
        curve = trainer.scalingCurve(*wl, base, worlds, opt.iterations);
    }

    TablePrinter table(strfmt("world sensitivity (overlap %s)", overlap));
    table.setHeader({"GPUs", "epoch (ms)", "compute (ms)", "comm (ms)",
                     "exposed (ms)", "overlap %", "speedup"});
    for (const ScalingResult &r : curve) {
        table.addRow({strfmt("%d", r.worldSize),
                      strfmt("%.3f", r.epochTimeSec * 1e3),
                      strfmt("%.3f", r.computeTimeSec * 1e3),
                      strfmt("%.3f", r.commTimeSec * 1e3),
                      strfmt("%.3f", r.commExposedSec * 1e3),
                      strfmt("%.1f", r.overlapFrac * 100.0),
                      strfmt("%.2f", r.speedup)});
    }
    table.print(std::cout);
    return 0;
}

int
cmdSweep(cli::Command &cmd)
{
    std::string param = "l2";
    std::string points_list;
    std::string trace_path;
    RunOptions opt;
    opt.iterations = 0; // below: 4 for a world sweep, else 6
    opt.freshAddressSpace = true; // every live point as a first run
    DdpOptions ddp_options;

    std::string params, defaults;
    for (const auto &[name, list] : kSweepDefaults) {
        params += (params.empty() ? "" : "|") + name;
        defaults += " " + name + " " + list + ";";
    }
    defaults.back() = ')';
    Flag iters = kIters(opt.iterations);
    iters.help += " (default 6, or 4 for the world sweep)";
    const std::vector<std::string> positionals = cmd.parse(
        {Flag{"--param", params, "L2 MiB, L1 KiB, SMs or DDP GPUs"}(param),
         Flag{"--points", "V,V,...", "sweep points (defaults:" + defaults}(
             points_list),
         Flag{"--trace", "FILE", "replay a recorded trace"}(trace_path),
         kOverlap(ddp_options.overlapComm), kScale(opt.scale), iters,
         kInference(opt.inferenceOnly)});
    if (trace_path.empty() == positionals.empty())
        cmd.fail("needs exactly one of a <workload> or a trace file");
    const std::string workload = positionals.empty() ? "" : positionals[0];
    if (!workload.empty())
        requireWorkload(cmd, workload);
    const std::vector<double> points = parsePoints(
        cmd, points_list.empty() ? kSweepDefaults.at(param) : points_list);
    if (opt.iterations == 0)
        opt.iterations = param == "world" ? 4 : 6;
    if (param == "world")
        return sweepWorld(cmd, points, trace_path, workload, opt,
                          ddp_options);

    // Check every point before running any. A trace replays its
    // recorded stream per point; a live sweep re-trains per point.
    const trace::RecordedTrace trace = trace_path.empty()
                                           ? trace::RecordedTrace{}
                                           : trace::readTraceFile(trace_path);
    std::vector<std::pair<std::string, RunOptions>> configs;
    for (double value : points) {
        RunOptions point = opt;
        if (!trace_path.empty())
            point.deviceConfig = trace.header.config;
        const std::string label =
            applyGpuParam(cmd, point.deviceConfig, param, value);
        configs.emplace_back(label, point);
    }
    TablePrinter table(strfmt("%s sensitivity", param.c_str()));
    table.setHeader({"config", "epoch (ms)", "L1 hit", "L2 hit", "IPC"});
    std::cout << "Sweeping " << param
              << (trace_path.empty()
                      ? " with live " + workload + " runs...\n\n"
                      : " over the recorded " + trace.header.workload +
                            " trace...\n\n");
    std::vector<trace::ReplayResult> replays;
    if (!trace_path.empty()) {
        std::vector<GpuConfig> gpus;
        for (const auto &config : configs)
            gpus.push_back(config.second.deviceConfig);
        replays = trace::sweepTrace(trace, gpus);
    }
    for (size_t i = 0; i < configs.size(); ++i) {
        const auto &[label, point] = configs[i];
        const WorkloadProfile p =
            trace_path.empty() ? CharacterizationRunner(point).run(workload)
                               : replays[i];
        table.addRow({label, strfmt("%.3f", p.epochTimeSec * 1e3),
                      strfmt("%.1f%%", p.profiler.l1HitRate() * 100),
                      strfmt("%.1f%%", p.profiler.l2HitRate() * 100),
                      strfmt("%.2f", p.profiler.avgIpc())});
    }
    table.print(std::cout);
    return 0;
}

int
cmdTraceRecord(cli::Command &cmd)
{
    RunOptions opt;
    opt.iterations = 6;
    std::string out;
    const std::string workload =
        cmd.parse({Flag{"--out", "PATH",
                        "output (default <workload>.gnntrace)"}(out),
                   kScale(opt.scale), kIters(opt.iterations),
                   kInference(opt.inferenceOnly)})
            .front();
    requireWorkload(cmd, workload);
    if (out.empty())
        out = workload + ".gnntrace";
    std::cout << "Recording " << workload << "...\n";
    const trace::RecordedTrace trace = recordWorkloadTrace(workload, opt);
    trace::writeTraceFile(out, trace);
    const uint64_t encoded = trace::serializeTrace(trace).size();
    const uint64_t naive = trace::naiveSizeBytes(trace);
    std::cout << strfmt(
        "%zu events -> %s (%s, %.1fx smaller than raw structs)\n",
        trace.events.size(), out.c_str(),
        formatBytes(static_cast<double>(encoded)).c_str(),
        static_cast<double>(naive) / static_cast<double>(encoded));
    return 0;
}

int
cmdTraceInfo(cli::Command &cmd)
{
    const std::string path = cmd.parse({}).front();
    const std::vector<uint8_t> bytes = readFileBytes(path);
    const trace::RecordedTrace trace =
        trace::parseTrace(bytes, "trace file '" + path + "'");
    trace::printTraceInfo(trace, bytes.size(), std::cout);
    return 0;
}

int
cmdTraceReplay(cli::Command &cmd)
{
    std::map<std::string, double> overrides; // 0 keeps the recorded value
    Output out;
    const std::string path =
        cmd.parse({Flag{"--l2", "MIB", "L2 size", kGpuValueRange}(
                       overrides["l2"]),
                   Flag{"--l1", "KIB", "L1 size", kGpuValueRange}(
                       overrides["l1"]),
                   Flag{"--sms", "N", "SM count", kGpuValueRange}(
                       overrides["sms"]),
                   out.chromeFlag})
            .front();
    const trace::RecordedTrace trace = trace::readTraceFile(path);
    GpuConfig cfg = trace.header.config;
    for (const auto &[param, value] : overrides)
        if (value > 0)
            applyGpuParam(cmd, cfg, param, value);
    ChromeTraceWriter chrome;
    std::vector<KernelObserver *> observers;
    if (!out.chrome.empty())
        observers.push_back(&chrome);
    std::cout << "Replaying the recorded " << trace.header.workload
              << " stream...\n\n";
    reports::printWorkloadSummary(trace::replayTrace(trace, cfg, observers),
                                  std::cout);
    if (!out.chrome.empty())
        finishChromeTrace(chrome, out.chrome, std::cout);
    return 0;
}

int
cmdTraceDiff(cli::Command &cmd)
{
    const std::vector<std::string> paths = cmd.parse({});
    const trace::RecordedTrace a = trace::readTraceFile(paths[0]);
    const trace::RecordedTrace b = trace::readTraceFile(paths[1]);
    trace::printTraceDiff(a, b, std::cout);
    return 0;
}

int
cmdCharacterize(cli::Command &cmd)
{
    RunOptions opt;
    opt.iterations = 6;
    opt.freshAddressSpace = true; // every workload as a first run
    bool memstats = false, opstats = false;
    Output out;
    cmd.parse({kScale(opt.scale), kIters(opt.iterations),
               kInference(opt.inferenceOnly), kMemstats(memstats),
               kOpstats(opstats), out.jsonFlag, out.telemetryFlag});
    std::unique_ptr<obs::TelemetrySink> telemetry = out.openTelemetry();
    opt.telemetry = telemetry.get();
    CharacterizationRunner runner(opt);
    std::ostream &progress = out.progress();
    std::vector<WorkloadProfile> profiles;
    for (const std::string &name : BenchmarkSuite::workloadNames()) {
        progress << "  " << name << "..." << std::flush;
        const double host_begin = obs::SpanTracer::instance().nowUs();
        profiles.push_back(runner.run(name));
        if (telemetry != nullptr) {
            telemetry->writeRecord(reports::runManifestJson(
                profiles.back(), opt,
                ThreadPool::instance().threadCount(),
                obs::SpanTracer::instance().nowUs() - host_begin));
        }
        progress << " done\n";
    }
    progress << "\n";
    if (telemetry != nullptr) {
        progress << "telemetry (" << telemetry->recordCount()
                 << " records) written to " << telemetry->path()
                 << "\n\n";
    }
    if (out.json) {
        std::cout << reports::figuresJson(profiles) << "\n";
        if (memstats)
            std::cout << reports::memstatsJson(profiles) << "\n";
        if (opstats)
            std::cout << reports::opstatsJson() << "\n";
        return 0;
    }
    reports::printFig2OpBreakdown(profiles, std::cout);
    reports::printFig3InstructionMix(profiles, std::cout);
    reports::printFig4Throughput(profiles, std::cout);
    reports::printFig5Stalls(profiles, std::cout);
    reports::printFig6Cache(profiles, std::cout);
    reports::printFig7Sparsity(profiles, std::cout);
    reports::printFig8SparsityTimeline(profiles, std::cout, opt.iterations);
    if (memstats)
        reports::printMemstats(profiles, std::cout);
    if (opstats)
        reports::printOpstats(std::cout);
    return 0;
}

int
cmdAblations(cli::Command &cmd)
{
    // The baseline is `gnnmark run W --iters 4`; every study changes
    // one knob of it.
    RunOptions base;
    base.iterations = 4;
    base.freshAddressSpace = true; // every run as a first run
    cmd.parse({kScale(base.scale)});
    RunOptions l1_bypass = base, fp16 = base, compressed = base,
               inference = base, a100 = base;
    l1_bypass.deviceConfig.l1BypassIrregular = true;
    fp16.deviceConfig.elemBytes = 2;
    compressed.deviceConfig.h2dCompression = true;
    inference.inferenceOnly = true;
    a100.deviceConfig = GpuConfig::a100();

    reports::AblationProfiles runs;
    for (const std::string &name : BenchmarkSuite::workloadNames()) {
        std::cout << "  " << name << "..." << std::flush;
        runs.baseline.push_back(CharacterizationRunner(base).run(name));
        runs.l1Bypass.push_back(CharacterizationRunner(l1_bypass).run(name));
        runs.fp16.push_back(CharacterizationRunner(fp16).run(name));
        runs.compressed.push_back(
            CharacterizationRunner(compressed).run(name));
        runs.inference.push_back(CharacterizationRunner(inference).run(name));
        runs.a100.push_back(CharacterizationRunner(a100).run(name));
        if (name == "TLSTM") {
            for (int cycles : {60, 120, 180, 360}) {
                RunOptions fetch = base;
                fetch.deviceConfig.ifetchColdCycles = cycles;
                // The baseline's own penalty (180 cycles) is its run.
                runs.coldFetch.emplace_back(
                    cycles, cycles == base.deviceConfig.ifetchColdCycles
                                ? runs.baseline.back()
                                : CharacterizationRunner(fetch).run(name));
            }
        }
        std::cout << " done\n";
    }
    std::cout << "\n";
    reports::printAblations(runs, std::cout);
    return 0;
}

int
cmdScaling(cli::Command &cmd)
{
    WorkloadConfig base;
    int iters = 4;
    bool weak = false;
    DdpOptions ddp_options;
    Output out;
    cmd.parse({kScale(base.scale), kIters(iters),
               Flag{"--weak", "", "weak instead of strong scaling"}(weak),
               kOverlap(ddp_options.overlapComm), out.jsonFlag,
               out.telemetryFlag});
    DdpTrainer trainer(ddp_options);
    std::unique_ptr<obs::TelemetrySink> telemetry = out.openTelemetry();
    std::ostream &progress = out.progress();
    std::vector<std::pair<std::string, std::vector<ScalingResult>>>
        curves;
    for (const std::string &name : BenchmarkSuite::workloadNames()) {
        auto wl = BenchmarkSuite::create(name);
        if (!wl->supportsMultiGpu())
            continue;
        progress << "  " << name << "..." << std::flush;
        curves.emplace_back(
            name,
            weak ? trainer.weakScalingCurve(*wl, base, {1, 2, 4}, iters)
                 : trainer.scalingCurve(*wl, base, {1, 2, 4}, iters));
        if (telemetry != nullptr) {
            telemetry->writeRecord(reports::scalingRecordJson(
                name, weak, ddp_options.overlapComm,
                curves.back().second));
        }
        progress << " done\n";
    }
    progress << "\n";
    if (telemetry != nullptr) {
        progress << "telemetry (" << telemetry->recordCount()
                 << " records) written to " << telemetry->path()
                 << "\n\n";
    }
    if (out.json)
        std::cout << reports::scalingJson(curves) << "\n";
    else
        reports::printFig9Scaling(curves, weak, std::cout);
    return 0;
}

int
cmdTimeToTrain(cli::Command &cmd)
{
    TimeToTrainOptions opt;
    cmd.parse({kScale(opt.scale),
               Flag{"--target", "F", "loss fraction to train down to",
                    {0, 1, true}}(opt.lossFraction)});
    TablePrinter table("Time-to-train");
    table.setHeader({"Workload", "Converged", "Steps", "Sim time (ms)",
                     "Loss start", "Loss end"});
    for (const std::string &name : BenchmarkSuite::workloadNames()) {
        auto wl = BenchmarkSuite::create(name);
        TimeToTrainResult r = measureTimeToTrain(*wl, opt);
        table.addRow({r.name, r.converged ? "yes" : "no",
                      strfmt("%d", r.iterations),
                      strfmt("%.1f", r.simulatedTimeSec * 1e3),
                      strfmt("%.3f", r.initialLoss),
                      strfmt("%.3f", r.finalLoss)});
    }
    table.print(std::cout);
    return 0;
}

int
cmdServe(cli::Command &cmd)
{
    serve::ServeOptions opt;
    opt.replicas = 3;
    opt.maxBatch = 8;
    opt.traffic.durationSec = 2.0;
    opt.traffic.ratePerSec = 0; // 0: sized from capacity below
    std::string arrival = serve::arrivalProcessName(opt.traffic.process);
    double scale = 1.0;
    double slo_ms = 0, window_ms = 0;
    std::string plan_path, save_plan_path;
    Output out;
    cmd.parse({
        Flag{"--arrival", "P", "poisson, bursty or diurnal"}(arrival),
        Flag{"--rps", "R", "offered load per second; 0 is 70% of capacity",
             cli::atLeast(0)}(opt.traffic.ratePerSec),
        Flag{"--duration", "S", "arrival horizon, simulated seconds",
             cli::above(0)}(opt.traffic.durationSec),
        Flag{"--slo-ms", "MS", "per-request SLO; 0 is 5x the max-batch cost",
             cli::atLeast(0)}(slo_ms),
        Flag{"--replicas", "N", "replica pool size",
             {1, serve::kMaxReplicas}}(opt.replicas),
        Flag{"--batch-max", "K", "dynamic batching cap",
             {1, serve::kMaxBatchSize}}(opt.maxBatch),
        Flag{"--faults", "none|straggler|crash|mixed", "fault scenario"}(
            opt.faultScenario),
        kPlan(plan_path), kSavePlan(save_plan_path),
        Flag{"--hedge", "on|off", "hedging"}(opt.hedgeEnabled),
        Flag{"--shed", "on|off", "load shedding"}(opt.shedEnabled),
        Flag{"--fallback", "on|off", "cache fallback"}(opt.fallbackEnabled),
        kSeed(opt.traffic.seed), kScale(scale),
        Flag{"--window", "MS", "SLO monitoring window; 0 is off",
             cli::atLeast(0)}(window_ms),
        Flag{"--slo-target", "F", "burn-rate attainment target",
             {0, 1, true}}(opt.sloTarget),
        Flag{"--trace-requests", "N", "trace every N-th request",
             cli::atLeast(1), {}, "32"}(opt.traceSampleEvery),
        out.jsonFlag, out.telemetryFlag, out.chromeFlag});
    if (!serve::parseArrivalProcess(arrival, opt.traffic.process))
        cmd.fail("unknown arrival process: " + arrival);
    std::ostream &progress = out.progress();

    // Price the batch cost table through the real inference path on
    // the simulated device; everything downstream (SLO defaults,
    // offered-load sizing, the serving event loop) runs off it.
    progress << "Pricing ego-net inference batches on the simulated "
                "V100...\n";
    const uint64_t seed = opt.traffic.seed;
    EgoNetBatchModel model(scale, seed);
    GpuDevice device(GpuConfig::v100(), seed);
    const serve::BatchCostTable table =
        serve::priceBatchCosts(model, device, opt.maxBatch, seed);
    const double batch_cost = table.costSec(opt.maxBatch);

    opt.traffic.catalogItems = model.numItems();
    // Default load: 70% of the healthy pool's max-batch throughput;
    // default SLO: 5x the max-batch cost — tight enough that a 6x
    // straggler blows it, loose enough for healthy batching.
    if (opt.traffic.ratePerSec == 0)
        opt.traffic.ratePerSec =
            0.7 * opt.replicas * opt.maxBatch / batch_cost;
    // Every arrival is materialised before the event loop starts.
    const double offered =
        opt.traffic.ratePerSec * opt.traffic.durationSec;
    if (offered > serve::kMaxOfferedRequests)
        cmd.fail(strfmt("--rps x --duration offers %g requests; at most "
                        "%g fit in one run",
                        offered, serve::kMaxOfferedRequests));
    opt.traffic.sloSec = slo_ms > 0 ? slo_ms * 1e-3 : 5.0 * batch_cost;
    opt.windowSec = window_ms * 1e-3;

    if (!plan_path.empty()) {
        opt.faults = loadFaultPlan(plan_path);
        opt.faultScenario = "plan";
    } else {
        opt.faults = serve::scenarioPlan(opt.faultScenario, opt.replicas,
                                         opt.traffic.durationSec);
    }
    if (!save_plan_path.empty()) {
        saveFaultPlan(save_plan_path, opt.faults);
        progress << "fault plan written to " << save_plan_path << "\n";
    }

    progress << strfmt(
        "Serving %s arrivals @ %.0f req/s for %.1f s (SLO %.2f ms, "
        "%d replicas, batch <= %d, faults=%s)...\n\n",
        serve::arrivalProcessName(opt.traffic.process),
        opt.traffic.ratePerSec, opt.traffic.durationSec,
        opt.traffic.sloSec * 1e3, opt.replicas, opt.maxBatch,
        opt.faultScenario.c_str());

    serve::ServingSimulator sim(table, opt);
    const serve::ServingReport report = sim.run();

    if (out.json)
        std::cout << reports::servingJson(report) << "\n";
    else
        reports::printServing(report, std::cout);
    if (std::unique_ptr<obs::TelemetrySink> telemetry =
            out.openTelemetry()) {
        telemetry->writeRecord(
            reports::servingRecordJson("serve", report));
        // One record per coalesced burn-rate alert, so downstream
        // tooling can correlate alerts against the fault plan without
        // re-deriving the windows.
        for (const obs::SloAlert &alert : report.alerts)
            telemetry->writeRecord(
                reports::sloAlertRecordJson("serve", report, alert));
        progress << "telemetry written to " << telemetry->path()
                 << "\n";
    }
    if (!out.chrome.empty()) {
        ChromeTraceWriter chrome;
        chrome.addRequestLanes(sim.drainRequestTraces());
        finishChromeTrace(chrome, out.chrome, progress);
    }
    return 0;
}

int
cmdFaults(cli::Command &cmd)
{
    WorkloadConfig base;
    FaultRecoveryOptions opt;
    std::string plan_path, save_plan_path;
    Output out;
    const std::string workload =
        cmd.parse({kScale(base.scale), kIters(opt.iterations),
                   Flag{"--interval", "K", "checkpoint period; 0 is off",
                        cli::atLeast(0)}(opt.checkpointInterval),
                   kPlan(plan_path), kSavePlan(save_plan_path),
                   out.jsonFlag, out.telemetryFlag, out.chromeFlag})
            .front();
    requireWorkload(cmd, workload);
    auto wl = BenchmarkSuite::create(workload);

    DdpTrainer trainer;
    const int world = wl->supportsMultiGpu() ? 4 : 1;

    std::ostream &progress = out.progress();

    // Probe the healthy per-iteration time so the injected faults land
    // at fixed fractions of the run regardless of workload or scale.
    // The chrome observer attaches only after the probe so the trace
    // shows the fault-injected run alone.
    ScalingResult probe = trainer.measure(*wl, base, world, 2);
    const double iter_sec =
        probe.epochTimeSec /
        static_cast<double>(wl->iterationsPerEpoch());

    const double horizon = iter_sec * opt.iterations;

    std::vector<FaultEvent> events = {
        {.kind = FaultKind::Straggler,
         .timeSec = 0.20 * horizon,
         .replica = world > 1 ? 1 : 0,
         .durationSec = 0.12 * horizon,
         .magnitude = 2.5},
        {.kind = FaultKind::TransientKernel, .timeSec = 0.50 * horizon},
    };
    if (world > 1) {
        events.push_back({.kind = FaultKind::DegradedLink,
                          .timeSec = 0.40 * horizon,
                          .durationSec = 0.12 * horizon,
                          .magnitude = 0.25});
        events.push_back({.kind = FaultKind::ReplicaCrash,
                          .timeSec = 0.65 * horizon,
                          .replica = world - 1});
    }

    // An explicit plan overrides the built-in schedule; saving writes
    // whichever plan the run used, so save + load round-trips
    // reproduce the exact same fault sequence.
    FaultPlan plan = !plan_path.empty() ? loadFaultPlan(plan_path)
                                        : FaultPlan(std::move(events));
    if (!save_plan_path.empty()) {
        saveFaultPlan(save_plan_path, plan);
        progress << "fault plan written to " << save_plan_path << "\n";
    }

    ChromeTraceWriter chrome;
    if (!out.chrome.empty())
        trainer.setExtraObserver(&chrome);

    progress << "Fault-injected training of " << workload << " on "
             << world << " simulated GPU(s)...\n\n";
    FaultToleranceResult result =
        trainer.runWithFaults(*wl, base, world, plan, opt);
    if (out.json)
        std::cout << reports::faultJson(result) << "\n";
    else
        reports::printFaultTolerance(result, std::cout);
    if (std::unique_ptr<obs::TelemetrySink> telemetry =
            out.openTelemetry()) {
        telemetry->writeRecord(reports::faultJson(result));
        progress << "\ntelemetry written to " << telemetry->path()
                 << "\n";
    }
    if (!out.chrome.empty()) {
        // The DDP model replays rank 0's stream on every replica, so
        // the mirrored lanes are the honest per-rank visualisation.
        chrome.mirrorDeviceLanes(world);
        finishChromeTrace(chrome, out.chrome, progress);
    }
    return 0;
}

/** One row of the `gnnmark ops` roofline sweep. */
struct OpsRow
{
    std::string op;      ///< "gemm" | "spmm"
    std::string shape;   ///< printable MxNxK / RxCxF
    double density = 1;  ///< nnz fraction of the sparse operand
    std::string format;  ///< "dense" | sparseFormatName()
    std::string variant; ///< dispatcher's pick
    int64_t flops = 0;
    int64_t minBytes = 0; ///< compulsory traffic (operands + result)
    double simSec = 0;
    double hostMs = 0;    ///< human table only, never serialized
    double intensity = 0; ///< FLOP per compulsory byte
    double gflops = 0;    ///< achieved on the simulated device
    double roofGflops = 0; ///< attainable at this intensity
};

/** Peak fp32 rate of `cfg` in FLOP/s (FMA counts as two). */
double
peakFlops(const GpuConfig &cfg)
{
    return static_cast<double>(cfg.numSms) * cfg.fp32PortsPerCycle *
           cfg.warpSize * 2.0 * cfg.clockGhz * 1e9;
}

/** Name of the single dispatch counter `fn` increments. */
template <typename Fn>
std::pair<std::string, double>
runDispatched(Fn &&fn)
{
    ops::Dispatch &dispatch = ops::Dispatch::instance();
    dispatch.resetStats();
    const auto t0 = std::chrono::steady_clock::now();
    fn();
    const double host_ms =
        std::chrono::duration<double, std::milli>(
            std::chrono::steady_clock::now() - t0)
            .count();
    const ops::DispatchStats s = dispatch.stats();
    std::string variant = "?";
    if (s.gemmNaive > 0)
        variant = ops::gemmVariantName(ops::GemmVariant::Naive);
    else if (s.gemmTiled > 0)
        variant = ops::gemmVariantName(ops::GemmVariant::Tiled);
    else if (s.spmmCsrScalar > 0)
        variant = ops::spmmVariantName(ops::SpmmVariant::CsrScalar);
    else if (s.spmmCsrVector > 0)
        variant = ops::spmmVariantName(ops::SpmmVariant::CsrVector);
    else if (s.spmmCoo > 0)
        variant = ops::spmmVariantName(ops::SpmmVariant::Coo);
    else if (s.spmmBell > 0)
        variant = ops::spmmVariantName(ops::SpmmVariant::Bell);
    return {variant, host_ms};
}

/** Deterministic dense operand with a given zero fraction. */
Tensor
opsDense(Rng &rng, int64_t rows, int64_t cols, double zero_frac)
{
    Tensor t = Tensor::zeros({rows, cols});
    for (int64_t i = 0; i < t.numel(); ++i) {
        if (!rng.bernoulli(zero_frac))
            t.data()[i] = rng.uniform(-1.0f, 1.0f);
    }
    return t;
}

/** Serialize the deterministic fields of one sweep row. */
std::string
opsRowJson(const OpsRow &row)
{
    obs::JsonWriter w;
    w.beginObject();
    w.key("type").value("ops");
    w.key("op").value(row.op);
    w.key("shape").value(row.shape);
    w.key("density").value(row.density);
    w.key("format").value(row.format);
    w.key("variant").value(row.variant);
    w.key("flops").value(row.flops);
    w.key("min_bytes").value(row.minBytes);
    w.key("intensity").value(row.intensity);
    w.key("sim_us").value(row.simSec * 1e6);
    w.key("gflops").value(row.gflops);
    w.key("roofline_gflops").value(row.roofGflops);
    w.key("roof_frac").value(
        row.roofGflops > 0 ? row.gflops / row.roofGflops : 0.0);
    w.endObject();
    return w.str();
}

/**
 * `gnnmark ops`: sweep the operator variants over shapes, sparsities
 * and storage formats, reporting a roofline placement per config. The
 * numbers in the JSON document and telemetry derive only from operand
 * shapes and the deterministic simulator, so two invocations emit
 * byte-identical documents; host wall time appears in the human table
 * alone.
 */
int
cmdOps(cli::Command &cmd)
{
    uint64_t seed = 42;
    Output out;
    cmd.parse({kSeed(seed), out.jsonFlag, out.telemetryFlag});
    const GpuConfig cfg = GpuConfig::v100();
    std::ostream &progress = out.progress();
    progress << "Sweeping operator variants on the simulated V100 "
                "(seed " << seed << ")...\n\n";

    // Run one op on a fresh simulated device; place it on the roofline.
    std::vector<OpsRow> rows;
    auto measure = [&](OpsRow row, auto &&op) {
        GpuDevice device(cfg);
        Profiler profiler;
        device.addObserver(&profiler);
        ContextGuard guard(&device);
        std::tie(row.variant, row.hostMs) = runDispatched(op);
        row.simSec = profiler.totalKernelTimeSec();
        row.intensity = static_cast<double>(row.flops) /
                        static_cast<double>(
                            std::max<int64_t>(row.minBytes, 1));
        row.gflops = row.simSec > 0 ? row.flops / row.simSec / 1e9 : 0.0;
        row.roofGflops =
            std::min(peakFlops(cfg), cfg.dramBandwidth * row.intensity) /
            1e9;
        rows.push_back(row);
    };

    // Dense GEMM: square ladders plus a half-zero A that flips the
    // dispatcher back to the skip-friendly naive kernel.
    struct GemmCase { int64_t m, n, k; double zeroFrac; };
    const std::vector<GemmCase> gemm_cases = {
        {64, 64, 64, 0.0},    {128, 128, 128, 0.0},
        {256, 256, 256, 0.0}, {33, 65, 47, 0.0},
        {192, 96, 64, 0.6},
    };
    for (const GemmCase &gc : gemm_cases) {
        Rng rng(seed ^ static_cast<uint64_t>(gc.m * 1315423911 +
                                             gc.n * 2654435761 + gc.k));
        const Tensor a = opsDense(rng, gc.m, gc.k, gc.zeroFrac);
        const Tensor b = opsDense(rng, gc.k, gc.n, 0.0);
        OpsRow row;
        row.op = "gemm";
        row.shape = strfmt("%lldx%lldx%lld", (long long)gc.m,
                           (long long)gc.n, (long long)gc.k);
        row.density = 1.0 - gc.zeroFrac;
        row.format = "dense";
        row.flops = 2 * gc.m * gc.n * gc.k;
        row.minBytes =
            (gc.m * gc.k + gc.k * gc.n + gc.m * gc.n) *
            static_cast<int64_t>(sizeof(float));
        measure(row, [&] { ops::gemm(a, b); });
    }

    // SpMM: every storage format over a density ladder.
    struct SpmmCase { int64_t rows, cols, f; double density; };
    const std::vector<SpmmCase> spmm_cases = {
        {512, 512, 32, 0.05},
        {1024, 1024, 64, 0.01},
        {2048, 2048, 128, 0.002},
    };
    const SparseFormat formats[] = {SparseFormat::Csr,
                                    SparseFormat::Coo,
                                    SparseFormat::BlockedEll};
    for (const SpmmCase &sc : spmm_cases) {
        Rng rng(seed ^ static_cast<uint64_t>(sc.rows * 40503 + sc.f));
        const CsrMatrix csr =
            uniformCsr(rng, sc.rows, sc.cols, sc.density);
        const Tensor b = opsDense(rng, sc.cols, sc.f, 0.0);
        for (SparseFormat format : formats) {
            const SparseMatrix a =
                SparseMatrix::fromCsr(csr, format);
            OpsRow row;
            row.op = "spmm";
            row.shape = strfmt("%lldx%lldx%lld", (long long)sc.rows,
                               (long long)sc.cols, (long long)sc.f);
            row.density = sc.density;
            row.format = sparseFormatName(format);
            row.flops = 2 * a.nnz() * sc.f;
            row.minBytes =
                a.footprintBytes() +
                (sc.cols * sc.f + sc.rows * sc.f) *
                    static_cast<int64_t>(sizeof(float));
            measure(row, [&] { ops::spmm(a, b); });
        }
    }

    if (out.json) {
        obs::JsonWriter w;
        w.beginObject();
        w.key("type").value("ops_report");
        w.key("seed").value(static_cast<int64_t>(seed));
        w.key("peak_gflops").value(peakFlops(cfg) / 1e9);
        w.key("dram_gbps").value(cfg.dramBandwidth / 1e9);
        w.endObject();
        std::cout << w.str() << "\n";
        for (const OpsRow &row : rows)
            std::cout << opsRowJson(row) << "\n";
    } else {
        TablePrinter table("Operator roofline (simulated V100)");
        table.setHeader({"Op", "Shape", "Density", "Format", "Variant",
                         "AI (F/B)", "Sim us", "GFLOP/s", "Roof",
                         "%roof", "Host ms"});
        for (const OpsRow &row : rows) {
            table.addRow(
                {row.op, row.shape, strfmt("%.3g", row.density),
                 row.format, row.variant, strfmt("%.2f", row.intensity),
                 strfmt("%.2f", row.simSec * 1e6),
                 strfmt("%.1f", row.gflops),
                 strfmt("%.1f", row.roofGflops),
                 strfmt("%.1f%%", row.roofGflops > 0
                                      ? row.gflops / row.roofGflops * 100
                                      : 0),
                 strfmt("%.3f", row.hostMs)});
        }
        table.print(std::cout);
    }
    if (std::unique_ptr<obs::TelemetrySink> telemetry =
            out.openTelemetry()) {
        for (const OpsRow &row : rows)
            telemetry->writeRecord(opsRowJson(row));
        progress << "telemetry written to " << telemetry->path()
                 << "\n";
    }
    return 0;
}

int
cmdGen(cli::Command &cmd)
{
    gen::GeneratorConfig cfg;
    std::string family;
    bool stream_train = false, stats = false;
    gen::StreamTrainOptions topt;
    Output out;
    cmd.parse(
        {Flag{"--family", "F", "rmat, rgg2d, hyperbolic or grid2d"}(family),
         Flag{"--n", "N", "vertex count"}(cfg.n),
         Flag{"--m", "M", "target edges; 0 derives it from the degree"}(cfg.m),
         Flag{"--degree", "D", "target average degree"}(cfg.avgDegree),
         Flag{"--chunks", "C", "streaming chunks"}(cfg.chunks),
         Flag{"--lookahead", "L", "chunks generated ahead"}(cfg.lookahead),
         Flag{"--gamma", "G", "hyperbolic degree exponent"}(cfg.gamma),
         Flag{"--grid-rows", "R", "grid2d rows"}(cfg.gridRows),
         Flag{"--grid-cols", "C", "grid2d columns"}(cfg.gridCols),
         Flag{"--wrap", "", "grid2d torus edges"}(cfg.gridWrap),
         kSeed(cfg.seed),
         Flag{"--stream", "", "train over the stream"}(stream_train),
         Flag{"--stats", "", "degree-distribution shape"}(stats),
         Flag{"--train-window", "N", "training windows of N chunks",
              cli::atLeast(0)}(topt.windowChunks),
         out.jsonFlag, out.telemetryFlag});
    if (!gen::parseFamily(family, cfg.family))
        cmd.fail("needs a graph family, got '" + family + "'");
    const std::string err = gen::validateConfig(cfg);
    if (!err.empty())
        cmd.fail("invalid generator config: " + err);

    std::ostream &progress = out.progress();
    progress << "Generating a " << gen::familyName(cfg.family) << " graph ("
             << gen::resolvedVertices(cfg) << " vertices, ~"
             << gen::resolvedTargetEdges(cfg) << " edges, "
             << cfg.chunks << " chunks"
             << (stream_train ? ", streamed training" : "") << ")...\n\n";

    gen::ChunkedEdgeStream stream(cfg);
    std::unique_ptr<gen::DegreeAccumulator> degrees;
    if (stats) {
        degrees = std::make_unique<gen::DegreeAccumulator>(
            gen::resolvedVertices(cfg));
    }

    gen::GenReport rep;
    if (stream_train) {
        topt.seed = cfg.seed;
        rep.training = gen::streamTrain(stream, topt, degrees.get());
    } else {
        gen::EdgeBlock block;
        while (stream.next(block))
            if (degrees)
                degrees->accumulate(block);
    }

    rep.family = gen::familyName(cfg.family);
    rep.requestedVertices = cfg.n;
    rep.vertices = gen::resolvedVertices(cfg);
    rep.targetEdges = gen::resolvedTargetEdges(cfg);
    rep.chunks = stream.chunkCount();
    rep.lookahead = cfg.lookahead;
    rep.seed = cfg.seed;
    rep.threads = ThreadPool::instance().threadCount();
    rep.edges = stream.edgesEmitted();
    rep.chunksEmitted = stream.chunksEmitted();
    rep.checksum = stream.checksum();
    rep.peakResidentBytes = stream.peakResidentBytes();
    rep.residentBudgetBytes = gen::residentBudgetBytes(cfg);
    rep.wallSec = stream.generateSec();
    rep.edgesPerSec = stream.edgesPerSec();
    if (degrees)
        rep.degrees = degrees->finalize();
    if (rep.training && topt.windowChunks > 0) {
        const gen::StreamTrainResult &trained = *rep.training;
        rep.trainWindowChunks = topt.windowChunks;
        // Edge and loss series share the same tumbling windows (chunk
        // ordinal is the clock), so zip them row by row.
        const size_t rows = std::min(trained.edgeWindows.size(),
                                     trained.lossWindows.size());
        for (size_t w = 0; w < rows; ++w) {
            const obs::WindowStats &ew = trained.edgeWindows[w];
            const obs::WindowStats &lw = trained.lossWindows[w];
            gen::GenTrainWindow row;
            row.index = ew.index;
            row.firstChunk = static_cast<int64_t>(ew.startSec);
            row.lastChunk = std::min(
                static_cast<int64_t>(ew.endSec),
                static_cast<int64_t>(trained.chunks)) - 1;
            row.chunks = ew.count;
            row.edges = static_cast<int64_t>(ew.sum);
            row.meanLoss = lw.mean();
            row.minLoss = lw.minValue;
            row.maxLoss = lw.maxValue;
            rep.trainWindows.push_back(row);
        }
    }

    if (out.json)
        std::cout << reports::genJson(rep) << "\n";
    else
        reports::printGen(rep, std::cout);
    if (std::unique_ptr<obs::TelemetrySink> telemetry =
            out.openTelemetry()) {
        telemetry->writeRecord(reports::genRecordJson("gen", rep));
        progress << "telemetry written to " << telemetry->path()
                 << "\n";
    }
    return 0;
}

/** One verb: its words, positional placeholders, summary and body. */
struct Verb
{
    const char *name;
    std::vector<std::string> positionals;
    const char *summary;
    int (*run)(cli::Command &);
};

const Verb kVerbs[] = {
    {"list", {}, "print the suite inventory", cmdList},
    {"run", {"<workload>"}, "train and profile one workload", cmdRun},
    {"characterize", {}, "profile the whole suite", cmdCharacterize},
    {"ablations", {}, "the takeaway studies vs baseline runs", cmdAblations},
    {"scaling", {}, "DDP scaling over 1, 2 and 4 GPUs", cmdScaling},
    {"ttt", {}, "MLPerf-style time-to-train", cmdTimeToTrain},
    {"faults", {"<workload>"}, "fault-injected elastic DDP", cmdFaults},
    {"serve", {}, "SLO-aware inference serving", cmdServe},
    {"trace record", {"<workload>"}, "record a run's trace", cmdTraceRecord},
    {"trace replay", {"<file>"}, "profile from a trace", cmdTraceReplay},
    {"trace info", {"<file>"}, "per-op-class trace stats", cmdTraceInfo},
    {"trace diff", {"<a>", "<b>"}, "compare two traces", cmdTraceDiff},
    {"sweep", {"[<workload>]"}, "L1/L2/SM/world sensitivity", cmdSweep},
    {"ops", {}, "GEMM/SpMM operator roofline sweep", cmdOps},
    {"gen", {}, "streamed parallel graph generation", cmdGen},
};

} // namespace

int
main(int argc, char **argv)
{
    const std::vector<std::string> args(argv + 1, argv + argc);
    for (const Verb &verb : kVerbs) {
        // A verb matches when its words ("trace replay") lead argv.
        const std::vector<std::string> words = split(verb.name, ' ');
        if (args.size() < words.size() ||
            !std::equal(words.begin(), words.end(), args.begin()))
            continue;
        cli::Command cmd{std::string("gnnmark ") + verb.name,
                         verb.positionals, verb.summary,
                         {args.begin() + words.size(), args.end()}};
        int rc = 1;
        try {
            rc = verb.run(cmd);
        } catch (const IoError &e) {
            std::cerr << "gnnmark: fatal: " << e.what() << "\n";
        }
        // Emit the rate-limiter's "suppressed N duplicates" summary on
        // every exit path that ran a command.
        flushSuppressedWarnings();
        return rc;
    }
    if (!args.empty())
        std::cerr << "gnnmark: unknown command: " << args.front() << "\n\n";
    std::cerr << "usage: gnnmark <command> [options]\n\ncommands:\n";
    for (const Verb &verb : kVerbs) {
        std::string synopsis = verb.name;
        for (const std::string &p : verb.positionals)
            synopsis += " " + p;
        std::cerr << strfmt("  %-24s %s\n", synopsis.c_str(), verb.summary);
    }
    return 2;
}
