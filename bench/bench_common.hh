/**
 * @file
 * Shared run options for the ablation and extension benches: the
 * scale, iteration count and seed every bench starts from, with the
 * GNNMARK_SCALE / GNNMARK_ITERS overrides.
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

/** Run options shared by the benches (env-overridable). */
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

} // namespace bench
} // namespace gnnmark

#endif // GNNMARK_BENCH_BENCH_COMMON_HH
