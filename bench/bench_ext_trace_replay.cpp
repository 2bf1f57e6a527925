/**
 * @file
 * Extension bench: the trace-once/analyze-many workflow. For a set of
 * workloads, records one run, verifies the replay reproduces the live
 * characterization exactly, measures the trace encoding against a raw
 * struct dump, and times a 4-point L2-size sensitivity sweep done live
 * (re-training per point) vs. trace-driven (cache-model replays of one
 * recording) — the paper's motivation for capturing nvprof/NVBit
 * traces once and studying architecture offline.
 */

#include <chrono>
#include <iostream>
#include <string>
#include <vector>

#include "base/table.hh"
#include "base/units.hh"
#include "core/trace_capture.hh"
#include "trace/toolkit.hh"

using namespace gnnmark;

namespace {

double
seconds(std::chrono::steady_clock::time_point begin)
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - begin)
        .count();
}

/** The aggregates a replay must reproduce bitwise. */
bool
replayMatchesLive(const WorkloadProfile &live,
                  const WorkloadProfile &replayed)
{
    return live.profiler.totalLaunches() ==
               replayed.profiler.totalLaunches() &&
           live.profiler.totalKernelTimeSec() ==
               replayed.profiler.totalKernelTimeSec() &&
           live.profiler.l1HitRate() == replayed.profiler.l1HitRate() &&
           live.profiler.l2HitRate() == replayed.profiler.l2HitRate() &&
           live.profiler.avgIpc() == replayed.profiler.avgIpc() &&
           live.wallTimeSec == replayed.wallTimeSec;
}

} // namespace

int
main()
{
    const std::vector<std::string> workloads = {"STGCN", "DGCN", "GW",
                                                "KGNNL", "ARGA"};
    const std::vector<double> l2_points_mib = {2, 4, 6, 12};
    RunOptions opt;
    opt.scale = 1.0;
    opt.iterations = 6;
    opt.seed = 2021; // the paper's year

    std::cout << "Trace-driven architecture sweeps (scale " << opt.scale
              << ", " << opt.iterations
              << " measured iterations; L2 sweep over 2/4/6/12 MiB)"
              << "...\n\n";

    TablePrinter table("Record/replay vs live re-simulation");
    table.setHeader({"Workload", "trace size", "vs raw", "fidelity",
                     "record (s)", "live sweep (s)", "replay sweep (s)",
                     "speedup"});

    bool all_exact = true;
    int fast_count = 0;
    for (const std::string &name : workloads) {
        std::cout << "  " << name << ": recording..." << std::flush;
        auto begin = std::chrono::steady_clock::now();
        WorkloadProfile live;
        const trace::RecordedTrace trace =
            recordWorkloadTrace(name, opt, &live);
        const double record_sec = seconds(begin);

        const bool exact =
            replayMatchesLive(live, trace::replayTrace(trace));
        all_exact = all_exact && exact;

        const uint64_t encoded = trace::serializeTrace(trace).size();
        const uint64_t naive = trace::naiveSizeBytes(trace);

        std::cout << " live sweep..." << std::flush;
        begin = std::chrono::steady_clock::now();
        for (double mib : l2_points_mib) {
            RunOptions point = opt;
            point.deviceConfig.l2SizeBytes =
                static_cast<uint64_t>(mib * MiB);
            CharacterizationRunner runner(point);
            (void)runner.run(name);
        }
        const double live_sec = seconds(begin);

        std::cout << " replay sweep..." << std::flush;
        std::vector<GpuConfig> configs;
        for (double mib : l2_points_mib) {
            GpuConfig cfg = trace.header.config;
            cfg.l2SizeBytes = static_cast<uint64_t>(mib * MiB);
            configs.push_back(cfg);
        }
        begin = std::chrono::steady_clock::now();
        (void)trace::sweepTrace(trace, configs);
        const double replay_sec = seconds(begin);
        std::cout << " done\n";

        const double speedup = replay_sec > 0 ? live_sec / replay_sec
                                              : 0.0;
        if (speedup >= 5.0)
            ++fast_count;
        table.addRow(
            {name, formatBytes(static_cast<double>(encoded)),
             strfmt("%.1fx", static_cast<double>(naive) /
                                 static_cast<double>(encoded)),
             exact ? "bitwise" : "MISMATCH",
             strfmt("%.2f", record_sec), strfmt("%.2f", live_sec),
             strfmt("%.2f", replay_sec), strfmt("%.1fx", speedup)});
    }

    std::cout << "\n";
    table.print(std::cout);
    std::cout << "\nReplay fidelity: "
              << (all_exact ? "every aggregate bitwise-identical "
                              "to the recording run"
                            : "MISMATCH — replay diverged from the "
                              "recording run")
              << "\nSweep speedup:  " << fast_count << "/"
              << workloads.size()
              << " workloads >= 5x vs live (target: at least 3). "
                 "Replay cost is pure simulation, so the ceiling is "
                 "(math + sim) / sim — compute-light workloads sit "
                 "lower.\n";
    return all_exact && fast_count >= 3 ? 0 : 1;
}
