/**
 * @file
 * Pure-data serving run report. Header-only, and it includes nothing
 * of serve that needs linking, so core's report printers and JSON
 * writers read it without linking the serve library (neither library
 * links the other). Its alerts are the burn-rate monitor's own
 * obs::SloAlert records.
 *
 * Every field derives from simulated time and seeded randomness, so a
 * report — and its JSON rendering — is byte-identical across
 * processes for a fixed configuration.
 */

#ifndef GNNMARK_SERVE_REPORT_HH
#define GNNMARK_SERVE_REPORT_HH

#include <cstdint>
#include <string>
#include <vector>

#include "obs/slo.hh"

namespace gnnmark {
namespace serve {

/** Per-replica accounting for one serving run. */
struct ReplicaReport
{
    int replica = 0;
    /** Batches this replica completed successfully. */
    int64_t batchesCompleted = 0;
    /** Batches cancelled on it (timeout or lost hedge race). */
    int64_t batchesCancelled = 0;
    /** Batch timeouts charged against it. */
    int64_t timeouts = 0;
    /** Times its circuit breaker tripped open. */
    int64_t breakerOpens = 0;
    /** Final breaker state name ("closed"/"open"/"half_open"). */
    std::string breakerFinal = "closed";
    /** Time spent on work that completed. */
    double busySec = 0;
    /** Time spent on work that was thrown away. */
    double cancelledSec = 0;
};

/**
 * One tumbling window of the serving timeline. Outcome counts are
 * attributed to the window the request *arrived* in (each request
 * lands in exactly one window, so offered == full+fallback+shed+lost
 * holds per window); latency percentiles cover requests *resolved*
 * in the window, which is what an operator watching a dashboard sees.
 */
struct ServingWindow
{
    int64_t index = 0;
    double startSec = 0;
    double endSec = 0;

    /** @{ Outcomes by arrival window. */
    int64_t offered = 0;
    int64_t sloMet = 0;
    int64_t full = 0;
    int64_t fallback = 0;
    int64_t shed = 0;
    int64_t lost = 0;
    /** @} */

    /** @{ Latency of requests resolved in this window, ms. */
    int64_t resolved = 0;
    double p50Ms = 0;
    double p95Ms = 0;
    double p99Ms = 0;
    /** @} */

    /** sloMet / window width. */
    double goodputPerSec = 0;
    /** Queue depth sampled at each arrival in the window. */
    double queueDepthMean = 0;
    double queueDepthMax = 0;

    /** This window's error-budget burn rate. */
    double burnRate = 0;
    /** Cumulative fraction of the error budget spent. */
    double budgetConsumed = 0;
};

/** Aggregate results of one serving simulation. */
struct ServingReport
{
    /** @{ Configuration echo. */
    std::string arrival = "poisson";
    std::string faultScenario = "none";
    double ratePerSec = 0;
    double durationSec = 0;
    double sloMs = 0;
    int replicas = 0;
    int maxBatch = 0;
    uint64_t seed = 0;
    bool hedgeEnabled = false;
    bool shedEnabled = false;
    bool fallbackEnabled = false;
    /** @} */

    /** @{ Volume: offered == full + fallback + shed + lost. */
    int64_t offered = 0;
    int64_t full = 0;
    int64_t fallback = 0;
    int64_t shed = 0;
    int64_t lost = 0;
    /** @} */

    /** Full-fidelity answers that met their deadline. */
    int64_t sloMet = 0;
    /** sloMet / durationSec: the headline robustness figure. */
    double goodputPerSec = 0;

    /** @{ Latency over answered (full + fallback) requests, ms. */
    double p50Ms = 0;
    double p95Ms = 0;
    double p99Ms = 0;
    double meanMs = 0;
    double maxMs = 0;
    /** @} */

    /** @{ Robustness mechanics. */
    int64_t retries = 0;
    int64_t hedgesLaunched = 0;
    int64_t hedgeWins = 0;
    int64_t timeouts = 0;
    int64_t breakerOpens = 0;
    double cacheHitRate = 0;
    int64_t cacheHits = 0;
    int64_t cacheMisses = 0;
    /** @} */

    /** @{ Batching and occupancy. */
    int64_t batches = 0;
    double meanBatchSize = 0;
    /** Completed-work time across replicas. */
    double busySec = 0;
    /** Thrown-away work time (timeouts + lost hedge races). */
    double cancelledSec = 0;
    /** (busy + cancelled) / (replicas * horizon). */
    double utilization = 0;
    /** @} */

    /** Simulated time of the last resolution. */
    double horizonSec = 0;

    std::vector<ReplicaReport> perReplica;

    /** @{ Windowed timeline (empty when windowSec == 0). */
    double windowSec = 0;
    double sloTarget = 0;
    /** Total error budget consumed over the run. */
    double budgetConsumed = 0;
    std::vector<ServingWindow> windows;
    std::vector<obs::SloAlert> alerts; ///< burn-rate alert intervals
    /** @} */

    /** @{ Request tracing (sampleEvery == 0 when disabled). */
    int64_t traceSampleEvery = 0;
    /** Requests whose span chains were kept (sampled + exemplars). */
    int64_t tracedRequests = 0;
    /** @} */
};

} // namespace serve
} // namespace gnnmark

#endif // GNNMARK_SERVE_REPORT_HH
