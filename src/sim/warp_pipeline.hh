/**
 * @file
 * In-order, multi-warp SM pipeline model.
 *
 * Replays the recorded traces of one wave of resident warps on one SM:
 * warps issue round-robin (up to issueWidth per cycle), dependent-use
 * latencies create issue stalls attributed per nvprof's taxonomy, and
 * memory instructions walk the L1 -> L2 -> DRAM hierarchy line by line.
 */

#ifndef GNNMARK_SIM_WARP_PIPELINE_HH
#define GNNMARK_SIM_WARP_PIPELINE_HH

#include <vector>

#include "base/rng.hh"
#include "sim/cache_model.hh"
#include "sim/gpu_config.hh"
#include "sim/kernel_desc.hh"
#include "sim/kernel_record.hh"
#include "sim/warp_trace.hh"

namespace gnnmark {

/**
 * Aggregate results of simulating one wave on one SM. The instruction
 * mix and lane work are full counts from the traces; the memory
 * counters and stall cycles are extrapolated from the recorded prefix.
 */
struct WaveResult : SimCounters
{
    double cycles = 0;  ///< wave duration (extrapolated) in SM cycles
    double issued = 0;  ///< warp instructions issued (full counts)
};

/**
 * Pipeline simulator bound to one SM's L1 and the device L2.
 *
 * The caches persist across kernels (owned by the device); the L0
 * I-cache is rebuilt per run() since each kernel has different code.
 */
class WarpPipeline
{
  public:
    WarpPipeline(const GpuConfig &config, CacheModel &l1, CacheModel &l2,
                 Rng &rng);

    /**
     * Simulate one wave.
     * @param warps Recorded traces of the resident warps (borrowed;
     *              pointers let the replay path feed stored traces
     *              without copying them).
     * @param desc  The launch (for code size, ILP, bypass hints).
     */
    WaveResult run(const std::vector<const WarpTrace *> &warps,
                   const KernelDesc &desc);

    /** Convenience overload over owned traces (tests, ad-hoc waves). */
    WaveResult
    run(const std::vector<WarpTrace> &warps, const KernelDesc &desc)
    {
        std::vector<const WarpTrace *> ptrs;
        ptrs.reserve(warps.size());
        for (const WarpTrace &w : warps)
            ptrs.push_back(&w);
        return run(ptrs, desc);
    }

  private:
    const GpuConfig &cfg_;
    CacheModel &l1_;
    CacheModel &l2_;
    Rng &rng_;
};

} // namespace gnnmark

#endif // GNNMARK_SIM_WARP_PIPELINE_HH
