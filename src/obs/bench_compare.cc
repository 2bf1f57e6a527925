#include "obs/bench_compare.hh"

#include <cmath>
#include <cstdlib>
#include <limits>
#include <sstream>

#include "base/io.hh"
#include "base/string_utils.hh"
#include "obs/json.hh"

namespace gnnmark {
namespace obs {

namespace {

bool
containsAny(const std::string &key, const std::vector<std::string> &subs)
{
    for (const auto &s : subs) {
        if (!s.empty() && key.find(s) != std::string::npos)
            return true;
    }
    return false;
}

std::string
readFileText(const std::string &path)
{
    std::vector<uint8_t> bytes = readFileBytes(path);
    return std::string(bytes.begin(), bytes.end());
}

/** Prefix for one JSONL record, from its type/workload/iteration. */
std::string
recordPrefix(const JsonValue &record, int line_number)
{
    std::string type = "record";
    if (const JsonValue *t = record.find("type"); t && t->isString())
        type = t->string;
    std::string scope;
    if (const JsonValue *w = record.find("workload"); w && w->isString())
        scope = w->string;
    std::string prefix = type;
    if (!scope.empty())
        prefix += "." + scope;
    if (const JsonValue *it = record.find("iteration");
        it && it->isNumber()) {
        prefix += strfmt(".%lld",
                         static_cast<long long>(it->number));
    } else if (scope.empty()) {
        prefix += strfmt(".%d", line_number);
    }
    return prefix;
}

/**
 * True when `key` is a flattened histogram bucket
 * ("...histograms.<name>.<digits>"); sets prefix/bucket on success.
 */
bool
histogramBucketKey(const std::string &key, std::string &prefix,
                   int &bucket)
{
    const size_t hist = key.find(".histograms.");
    if (hist == std::string::npos)
        return false;
    const size_t dot = key.rfind('.');
    if (dot == std::string::npos || dot < hist + 12)
        return false;
    const std::string last = key.substr(dot + 1);
    if (last.empty() ||
        last.find_first_not_of("0123456789") != std::string::npos)
        return false;
    prefix = key.substr(0, dot);
    bucket = std::atoi(last.c_str());
    return true;
}

/** Nearest-rank quantile over log2 buckets (obs::histogramBucket). */
double
bucketQuantile(const std::map<int, double> &buckets, double total,
               double q)
{
    if (total <= 0)
        return 0;
    double rank = std::ceil(q * total);
    if (rank < 1)
        rank = 1;
    double seen = 0;
    double value = 0;
    for (const auto &[b, count] : buckets) {
        value = b == 0 ? 0.0 : std::exp2(b - 31.5);
        seen += count;
        if (seen >= rank)
            return value;
    }
    return value;
}

/** True for a derived percentile key made by collapseHistogramBuckets. */
bool
derivedPercentileKey(const std::string &key)
{
    if (key.find(".histograms.") == std::string::npos)
        return false;
    const size_t n = key.size();
    return n >= 4 && (key.compare(n - 4, 4, ".p50") == 0 ||
                      key.compare(n - 4, 4, ".p95") == 0 ||
                      key.compare(n - 4, 4, ".p99") == 0);
}

} // namespace

std::map<std::string, double>
collapseHistogramBuckets(const std::map<std::string, double> &flat)
{
    std::map<std::string, double> out;
    std::map<std::string, std::map<int, double>> hists;
    for (const auto &[key, value] : flat) {
        std::string prefix;
        int bucket = 0;
        if (histogramBucketKey(key, prefix, bucket))
            hists[prefix][bucket] = value;
        else
            out[key] = value;
    }
    for (const auto &[prefix, buckets] : hists) {
        double total = 0;
        for (const auto &[b, count] : buckets)
            total += count;
        out[prefix + ".count"] = total;
        out[prefix + ".p50"] = bucketQuantile(buckets, total, 0.50);
        out[prefix + ".p95"] = bucketQuantile(buckets, total, 0.95);
        out[prefix + ".p99"] = bucketQuantile(buckets, total, 0.99);
    }
    return out;
}

double
toleranceForKey(const CompareOptions &opts, const std::string &key)
{
    double tol = opts.defaultTolerance;
    size_t best = 0;
    for (const auto &[prefix, t] : opts.tolerances) {
        if (key.compare(0, prefix.size(), prefix) == 0 &&
            prefix.size() >= best) {
            best = prefix.size();
            tol = t;
        }
    }
    return tol;
}

CompareResult
compareMetricMaps(const std::map<std::string, double> &baseline,
                  const std::map<std::string, double> &candidate,
                  const CompareOptions &opts)
{
    const double nan = std::numeric_limits<double>::quiet_NaN();
    CompareResult result;

    std::map<std::string, double> baseCollapsed, candCollapsed;
    const std::map<std::string, double> *basePtr = &baseline;
    const std::map<std::string, double> *candPtr = &candidate;
    if (opts.histogramPercentiles) {
        baseCollapsed = collapseHistogramBuckets(baseline);
        candCollapsed = collapseHistogramBuckets(candidate);
        basePtr = &baseCollapsed;
        candPtr = &candCollapsed;
    }
    const std::map<std::string, double> &base_map = *basePtr;
    const std::map<std::string, double> &cand_map = *candPtr;

    for (const auto &[key, base] : base_map) {
        if (containsAny(key, opts.ignoreSubstrings)) {
            ++result.ignoredKeys;
            continue;
        }
        auto it = cand_map.find(key);
        if (it == cand_map.end()) {
            if (!opts.allowMissing)
                result.failures.push_back(
                    {key, base, nan, 0, 0, "missing"});
            continue;
        }
        ++result.comparedKeys;
        const double cand = it->second;
        const double tol =
            opts.histogramPercentiles && derivedPercentileKey(key)
                ? opts.histogramTolerance
                : toleranceForKey(opts, key);
        const double scale = std::max(std::fabs(base), std::fabs(cand));
        const double rel =
            scale == 0 ? 0 : std::fabs(cand - base) / scale;
        // NaN on either side never satisfies <=, so it always fails.
        const bool ok = std::isfinite(base) && std::isfinite(cand)
            ? rel <= tol ||
                  std::fabs(cand - base) <= opts.absoluteFloor
            : (std::isnan(base) && std::isnan(cand)) || base == cand;
        if (!ok)
            result.failures.push_back(
                {key, base, cand, rel, tol, "regression"});
    }

    for (const auto &[key, cand] : cand_map) {
        if (containsAny(key, opts.ignoreSubstrings)) {
            ++result.ignoredKeys;
            continue;
        }
        if (base_map.find(key) == base_map.end() && !opts.allowMissing)
            result.failures.push_back({key, nan, cand, 0, 0, "extra"});
    }
    return result;
}

std::map<std::string, double>
flattenTelemetryFile(const std::string &path)
{
    const std::string text = readFileText(path);
    std::map<std::string, double> out;

    // Try whole-document JSON first (report files); fall back to JSONL.
    try {
        JsonValue doc = parseJson(text);
        flattenNumbers(doc, "", out);
        return out;
    } catch (const JsonError &) {
    }

    std::istringstream in(text);
    std::string line;
    int line_number = 0;
    while (std::getline(in, line)) {
        ++line_number;
        if (line.find_first_not_of(" \t\r") == std::string::npos)
            continue;
        JsonValue record = parseJson(line); // throws with offset info
        flattenNumbers(record, recordPrefix(record, line_number), out);
    }
    return out;
}

std::string
describeFailure(const CompareFailure &f)
{
    if (f.reason == "missing")
        return strfmt("MISSING  %s (baseline %s, absent in candidate)",
                      f.key.c_str(), jsonNumber(f.baseline).c_str());
    if (f.reason == "extra")
        return strfmt("EXTRA    %s (candidate %s, absent in baseline)",
                      f.key.c_str(), jsonNumber(f.candidate).c_str());
    return strfmt("REGRESS  %s  baseline=%s candidate=%s "
                  "rel_err=%.4g tol=%.4g",
                  f.key.c_str(), jsonNumber(f.baseline).c_str(),
                  jsonNumber(f.candidate).c_str(), f.relativeError,
                  f.tolerance);
}

} // namespace obs
} // namespace gnnmark
