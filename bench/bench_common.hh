/**
 * @file
 * Shared driver for the figure/table benches: trains the whole suite
 * on the simulated V100 under a profiler and hands the per-workload
 * profiles to the report printer of the specific figure.
 */

#ifndef GNNMARK_BENCH_BENCH_COMMON_HH
#define GNNMARK_BENCH_BENCH_COMMON_HH

#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

#include "base/logging.hh"
#include "cli.hh"
#include "core/characterization.hh"
#include "core/suite.hh"

namespace gnnmark {
namespace bench {

/**
 * Environment variable `name` read by the gnnmark CLI's number rules
 * (whole text, finite, in `range`), or `fallback` when it is unset. A
 * malformed value exits 2, naming the variable.
 */
template <typename T>
T
envNumber(const char *name, T fallback, cli::Range range)
{
    const char *text = std::getenv(name);
    if (text == nullptr)
        return fallback;
    T value = fallback;
    const std::string problem = cli::parseNumber(text, value, range);
    if (!problem.empty()) {
        std::cerr << name << ": " << problem << "\n";
        std::exit(2);
    }
    return value;
}

/** Run options shared by the figure benches (env-overridable). */
inline RunOptions
benchOptions()
{
    RunOptions opt;
    opt.scale = envNumber("GNNMARK_SCALE", 1.0, cli::above(0));
    opt.iterations = envNumber("GNNMARK_ITERS", 6, cli::atLeast(1));
    opt.warmupIterations = 1;
    opt.seed = 2021; // the paper's year
    return opt;
}

/**
 * Inference-mode twin of benchOptions(): forward passes only, the
 * shorter iteration budget the inference-path benches share. The
 * training/inference contrast bench and the serving bench both start
 * from this so the two stay on the same configuration.
 */
inline RunOptions
inferenceOptions()
{
    RunOptions opt = benchOptions();
    opt.iterations = 4;
    opt.inferenceOnly = true;
    return opt;
}

/** Characterize the full suite (Table I order). */
inline std::vector<WorkloadProfile>
characterizeSuite()
{
    RunOptions opt = benchOptions();
    std::cout << "Training the GNNMark suite on a simulated V100 "
              << "(scale " << opt.scale << ", " << opt.iterations
              << " measured iterations per workload)...\n\n";
    CharacterizationRunner runner(opt);
    std::vector<WorkloadProfile> profiles;
    for (const std::string &name : BenchmarkSuite::workloadNames()) {
        std::cout << "  " << name << "..." << std::flush;
        profiles.push_back(runner.run(name));
        std::cout << " done\n";
    }
    std::cout << "\n";
    return profiles;
}

} // namespace bench
} // namespace gnnmark

#endif // GNNMARK_BENCH_BENCH_COMMON_HH
