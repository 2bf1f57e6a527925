/**
 * @file
 * The perf-regression gate: compare two telemetry/report files and
 * fail loudly when the candidate drifted past tolerance.
 *
 * Inputs are either JSONL telemetry files (gnnmark's telemetry sink)
 * or single-document JSON reports; both flatten to dotted-path metric
 * maps (see obs/bench_compare.hh). Exit codes: 0 within tolerance, 1
 * regression/missing/extra keys, 2 usage or unreadable/unparseable
 * input — so CI can distinguish "perf broke" from "the harness broke".
 */

#include <iostream>
#include <map>
#include <stdexcept>
#include <string>

#include "cli.hh"
#include "obs/bench_compare.hh"

using namespace gnnmark;

int
main(int argc, char **argv)
{
    using cli::Flag;
    obs::CompareOptions opts;
    bool quiet = false;
    cli::Command cmd{"bench_diff", {"<baseline>", "<candidate>"},
                     "diff two telemetry or report files; exit 0 within "
                     "tolerance, 1 on a regression, 2 on bad usage or input",
                     {argv + 1, argv + argc}};
    const std::vector<std::string> paths = cmd.parse(
        {Flag{"--tol", "F", "default relative tolerance", cli::atLeast(0)}(
             opts.defaultTolerance),
         Flag{"--abs", "F", "absolute difference that always passes",
              cli::atLeast(0)}(opts.absoluteFloor),
         {"--tol-prefix", "P=F",
          "tolerance F for keys starting with P (repeatable)", {},
          [&opts](const std::string &spec) {
              const size_t eq = spec.find('=');
              if (eq == std::string::npos || eq == 0)
                  return "expected PREFIX=F, got '" + spec + "'";
              return cli::parseNumber(spec.substr(eq + 1),
                                      opts.tolerances[spec.substr(0, eq)],
                                      cli::atLeast(0));
          }},
         {"--ignore", "SUBSTR", "skip keys containing SUBSTR (repeatable)",
          {},
          [&opts](const std::string &v) {
              opts.ignoreSubstrings.push_back(v);
              return std::string();
          }},
         Flag{"--hist-pct", "", "diff histograms by count/p50/p95/p99"}(
             opts.histogramPercentiles),
         Flag{"--hist-tol", "F", "tolerance of the histogram percentiles",
              cli::atLeast(0)}(opts.histogramTolerance),
         Flag{"--allow-missing", "", "keys on one side only pass"}(
             opts.allowMissing),
         Flag{"--quiet", "", "print nothing on success"}(quiet)});
    const std::string &baseline_path = paths[0];
    const std::string &candidate_path = paths[1];

    std::map<std::string, double> baseline;
    std::map<std::string, double> candidate;
    try {
        baseline = obs::flattenTelemetryFile(baseline_path);
        candidate = obs::flattenTelemetryFile(candidate_path);
    } catch (const std::runtime_error &e) { // IoError or obs::JsonError
        std::cerr << "bench_diff: " << e.what() << "\n";
        return 2;
    }

    const obs::CompareResult result =
        compareMetricMaps(baseline, candidate, opts);

    if (!result.ok()) {
        for (const obs::CompareFailure &f : result.failures)
            std::cerr << describeFailure(f) << "\n";
        std::cerr << "bench_diff: FAIL — " << result.failures.size()
                  << " of " << result.comparedKeys
                  << " compared keys out of tolerance (" << baseline_path
                  << " vs " << candidate_path << ")\n";
        return 1;
    }
    if (!quiet) {
        std::cout << "bench_diff: OK — " << result.comparedKeys
                  << " keys within tolerance, " << result.ignoredKeys
                  << " wall-clock/ignored keys skipped\n";
    }
    return 0;
}
