/**
 * @file
 * Machine-readable twins of the reports in core/reports.hh: the same
 * Fig. 2-9 aggregates, emitted as deterministic JSON instead of
 * fixed-width tables. The `gnnmark --json` output mode and the
 * telemetry manifest records are built from these, and bench_diff
 * consumes them as regression baselines.
 */

#ifndef GNNMARK_CORE_REPORTS_JSON_HH
#define GNNMARK_CORE_REPORTS_JSON_HH

#include <string>
#include <utility>
#include <vector>

#include "core/characterization.hh"
#include "gen/report.hh"
#include "multigpu/ddp.hh"
#include "obs/json.hh"
#include "serve/report.hh"

namespace gnnmark {
namespace reports {

/**
 * Append one workload's full Fig. 2-8 aggregate object at the writer's
 * current position: op-time breakdown, instruction mix, throughput,
 * stalls, cache behaviour, transfer sparsity, epoch extrapolation and
 * the loss curve.
 */
void profileJson(obs::JsonWriter &w, const WorkloadProfile &profile);

/** Whole-suite document: {"workloads":{"GCN":{...},...}}. */
std::string figuresJson(const std::vector<WorkloadProfile> &profiles);

/** Fig. 9 document: scaling curves per workload. */
std::string scalingJson(
    const std::vector<std::pair<std::string, std::vector<ScalingResult>>>
        &curves);

/** Fault-tolerance document for one fault-injected run. */
std::string faultJson(const FaultToleranceResult &result);

/**
 * One scaling telemetry record (a single JSONL line) for one
 * workload's curve: per-world-size epoch/compute splits plus the
 * ddp.comm_total_sec / ddp.comm_exposed_sec / ddp.overlap_frac keys
 * bench_diff gates on. Points nest under "w<world>" so the flattened
 * diff key carries the world size.
 */
std::string scalingRecordJson(const std::string &workload, bool weak,
                              bool overlap_on,
                              const std::vector<ScalingResult> &curve);

/**
 * Serving document (--json twin of printServing): config echo,
 * outcome split, latency percentiles, robustness counters and
 * per-replica accounting. Byte-stable for a fixed configuration.
 */
std::string servingJson(const serve::ServingReport &report);

/**
 * One serving telemetry record (a single JSONL line), tagged
 * "type":"serving" plus a caller-chosen label so load sweeps can
 * emit one line per operating point and bench_diff can gate on the
 * flattened counters.
 */
std::string servingRecordJson(const std::string &label,
                              const serve::ServingReport &report);

/**
 * One SLO burn-rate alert telemetry record (a single JSONL line),
 * tagged "type":"slo_alert": the firing rule, its window span in
 * simulated seconds, peak burn and error fraction, plus the fault
 * scenario so post-hoc analysis can correlate alerts with injected
 * faults. Emitted once per alert in a windowed serving run.
 */
std::string sloAlertRecordJson(const std::string &label,
                               const serve::ServingReport &report,
                               const obs::SloAlert &alert);

/**
 * Generation document (--json twin of printGen): config echo, edge
 * count, the order-dependent stream checksum (as hi/lo 32-bit halves,
 * since 64-bit values overflow JSON doubles), resident-memory
 * accounting, and the optional degree/training blocks. Contains ONLY
 * deterministic fields — no wall-clock rates — so the document is
 * byte-identical across thread counts and serves as the determinism
 * oracle in CI.
 */
std::string genJson(const gen::GenReport &report);

/**
 * One generation telemetry record (a single JSONL line), tagged
 * "type":"generation" plus a caller-chosen label; the only place the
 * wall-clock figures appear in machine-readable output, as
 * host_wall_sec and host_edges_per_sec.
 */
std::string genRecordJson(const std::string &label,
                          const gen::GenReport &report);

/**
 * --memstats document: allocator counters per workload. Kept separate
 * from figuresJson so run reports stay identical across GNNMARK_ALLOC
 * modes (these counters intentionally differ between allocators).
 */
std::string memstatsJson(const std::vector<WorkloadProfile> &profiles);

/**
 * --opstats document: ops::Dispatch variant-selection counters and
 * the calibration summary. Kept separate from figuresJson (and out of
 * the gated baselines) — counts legitimately change when the variant
 * cost model or GNNMARK_OP_VARIANT pins change.
 */
std::string opstatsJson();

/**
 * One "manifest" telemetry record (a single JSONL line): run config,
 * seed, thread count, simulated + host wall time, and the profile's
 * figure aggregates. `host_wall_us` is excluded from diffs by name.
 */
std::string runManifestJson(const WorkloadProfile &profile,
                            const RunOptions &options, int threads,
                            double host_wall_us);

} // namespace reports
} // namespace gnnmark

#endif // GNNMARK_CORE_REPORTS_JSON_HH
