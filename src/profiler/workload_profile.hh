/**
 * @file
 * What one training run measured, in the shape every report printer,
 * JSON writer and sweep reads. A live run (CharacterizationRunner)
 * and a trace replay (trace::ReplayResult derives from it) fill the
 * same struct.
 */

#ifndef GNNMARK_PROFILER_WORKLOAD_PROFILE_HH
#define GNNMARK_PROFILER_WORKLOAD_PROFILE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "profiler/profiler.hh"

namespace gnnmark {

/** Host-allocator behaviour observed during one run (--memstats). */
struct AllocSummary
{
    std::string mode;           ///< allocator name ("caching"/"system")
    uint64_t bytesPeak = 0;     ///< high-water mark of live bytes
    uint64_t slabsMapped = 0;   ///< slabs backing the arena
    uint64_t requestsTotal = 0; ///< allocate() calls over the run
    uint64_t heapCallsTotal = 0; ///< underlying malloc-style calls
    double cacheHitRate = 0.0;  ///< free-list hits / requests
    /** Heap calls in the final measured iteration: the steady state. */
    uint64_t steadyAllocCallsPerIter = 0;
    /** allocate() requests in the final measured iteration. */
    uint64_t steadyRequestsPerIter = 0;
};

/** Everything measured while training one workload. */
struct WorkloadProfile
{
    std::string name;
    Profiler profiler;        ///< full metric aggregates
    std::vector<float> losses;
    double wallTimeSec = 0;   ///< simulated wall time of measured steps
    double epochTimeSec = 0;  ///< extrapolated time per epoch
    int64_t iterationsPerEpoch = 0;
    double parameterBytes = 0;
    AllocSummary memStats;    ///< allocator counters for --memstats
};

} // namespace gnnmark

#endif // GNNMARK_PROFILER_WORKLOAD_PROFILE_HH
