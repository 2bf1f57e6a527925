/**
 * @file
 * Telemetry sink: JSON-lines output, one record per line.
 *
 * The characterization runner writes one "iteration" record per
 * measured training step (loss, simulated time, kernel counts, a full
 * metrics snapshot) and one "manifest" record per run (config, seed,
 * thread count, figure aggregates). Everything except fields whose
 * names mark them as wall-clock ("wall_time_*", "host_*") is
 * deterministic for a fixed seed and thread count, which is what lets
 * bench_diff gate regressions on two telemetry files.
 */

#ifndef GNNMARK_OBS_TELEMETRY_HH
#define GNNMARK_OBS_TELEMETRY_HH

#include <fstream>
#include <string>

#include "obs/metrics.hh"

namespace gnnmark {
namespace obs {

/** Append-only JSONL writer; one JSON object per writeRecord call. */
class TelemetrySink
{
  public:
    /** Opens (truncates) `path`; throws IoError on failure. */
    explicit TelemetrySink(const std::string &path);

    /** Write one JSON object as a line (caller provides the object). */
    void writeRecord(const std::string &json_object);

    int64_t recordCount() const { return records_; }
    const std::string &path() const { return path_; }

  private:
    std::string path_;
    std::ofstream out_;
    int64_t records_ = 0;
};

/**
 * Append `snapshot` under the current writer position as
 * {"counters":{...},"gauges":{...},"histograms":{"name":[b,...]}}.
 * Histogram arrays are trimmed of trailing zero buckets so quiet
 * metrics stay readable.
 */
void writeMetricsSnapshot(class JsonWriter &w,
                          const MetricsSnapshot &snapshot);

} // namespace obs
} // namespace gnnmark

#endif // GNNMARK_OBS_TELEMETRY_HH
