/**
 * @file
 * Regression-gate comparison engine behind tools/bench_diff.
 *
 * Both inputs are flattened to dotted-path -> number maps (a plain JSON
 * report becomes "figure2.gcn.sm_occupancy"; a JSONL telemetry file
 * becomes "iteration.<workload>.<iter>.loss" / "manifest.<workload>.*")
 * and compared key-by-key with relative tolerances. Wall-clock keys
 * (substring "wall_time" or "host_") are skipped: they are the only
 * nondeterministic fields the telemetry contract allows.
 */

#ifndef GNNMARK_OBS_BENCH_COMPARE_HH
#define GNNMARK_OBS_BENCH_COMPARE_HH

#include <map>
#include <string>
#include <vector>

namespace gnnmark {
namespace obs {

/** Tolerances and filters for compareMetricMaps. */
struct CompareOptions
{
    /** Relative tolerance applied when no per-key rule matches. */
    double defaultTolerance = 0.0;
    /**
     * Absolute difference below which a pair always passes, whatever
     * its relative error. Keeps near-zero fractions (a 3e-5 stall
     * share, say) from tripping a relative gate on noise-level drift.
     */
    double absoluteFloor = 0.0;
    /**
     * Per-key-prefix tolerances; the longest matching prefix wins over
     * defaultTolerance. E.g. {"iteration.", 0.05} loosens every
     * per-iteration field while keeping manifest aggregates exact.
     */
    std::map<std::string, double> tolerances;
    /** Keys containing any of these substrings are never compared. */
    std::vector<std::string> ignoreSubstrings = {"wall_time", "host_"};
    /** Accept keys present on only one side (else they are failures). */
    bool allowMissing = false;
    /**
     * Collapse flattened log2-histogram bucket arrays (keys of the
     * form "<prefix>.histograms.<name>.<bucket>") into derived
     * "<prefix>.histograms.<name>.{count,p50,p95,p99}" keys before
     * comparing, instead of matching raw buckets bucket-by-bucket.
     * Derived percentile keys compare under histogramTolerance;
     * counts compare under the normal tolerance rules.
     */
    bool histogramPercentiles = false;
    /**
     * Relative tolerance for derived percentile keys. Adjacent log2
     * buckets differ by 2x (relative error 0.5 against the larger),
     * so the default passes one-bucket drift and fails two or more.
     */
    double histogramTolerance = 0.5;
};

/** One per-key comparison outcome that exceeded its tolerance. */
struct CompareFailure
{
    std::string key;
    double baseline = 0;  ///< NaN when missing from baseline
    double candidate = 0; ///< NaN when missing from candidate
    double relativeError = 0;
    double tolerance = 0;
    std::string reason; ///< "regression", "missing", "extra"
};

/** Aggregate result of one comparison. */
struct CompareResult
{
    int comparedKeys = 0;
    int ignoredKeys = 0;
    std::vector<CompareFailure> failures;

    bool ok() const { return failures.empty(); }
};

/** Tolerance that applies to `key` under `opts` (longest prefix). */
double toleranceForKey(const CompareOptions &opts, const std::string &key);

/**
 * Replace flattened histogram bucket keys with derived
 * count/p50/p95/p99 keys (see CompareOptions::histogramPercentiles).
 * Bucket indices use the log2 layout of obs::histogramBucket: bucket 0
 * reads as value 0, bucket b as the geometric midpoint 2^(b - 31.5).
 * Keys that are not histogram buckets pass through untouched.
 */
std::map<std::string, double> collapseHistogramBuckets(
    const std::map<std::string, double> &flat);

/** Compare two flattened metric maps under `opts`. */
CompareResult compareMetricMaps(
    const std::map<std::string, double> &baseline,
    const std::map<std::string, double> &candidate,
    const CompareOptions &opts);

/**
 * Flatten a telemetry or report file into a metric map. The format is
 * sniffed per line: a file whose every non-blank line parses as a JSON
 * object is treated as JSONL; records are prefixed
 * "iteration.<workload>.<iteration>." or "<type>.<workload>." using the
 * record's own "type"/"workload"/"iteration" fields (falling back to
 * the line number when absent). A file that parses as a single JSON
 * document is flattened directly. Throws JsonError / IoError.
 */
std::map<std::string, double> flattenTelemetryFile(
    const std::string &path);

/** Human-readable one-line summary of one failure. */
std::string describeFailure(const CompareFailure &f);

} // namespace obs
} // namespace gnnmark

#endif // GNNMARK_OBS_BENCH_COMPARE_HH
