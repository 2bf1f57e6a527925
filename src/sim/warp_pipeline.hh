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

#include "base/logging.hh"
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

/** The data caches one group member's memory ops look up. */
struct MemberCaches
{
    CacheModel *l1; ///< the simulated SM's L1
    CacheModel *l2; ///< the device L2
};

/**
 * Pipeline simulator for one wave, run for a lockstep group of members
 * whose configs differ only in data-cache geometry.
 *
 * The members see the same warps under the same timing parameters, so
 * one issue loop serves them all; each looks every memory line up in
 * its own L1 and L2 and keeps its own cache counters. Their issue gaps
 * can differ only where a gap waits on a worst-line latency: a Load
 * whose dependency draw came up true, or such an Atomic. There the
 * loop splits, copying its state (warp pcs, wake heap, ready FIFO,
 * clock, I-caches, RNG, the cycle's remaining issuers), and each part
 * goes on with the members that computed its gap. Every op draws the
 * RNG a fixed number of times whichever part issues it, so all parts
 * end the wave on the same RNG state; the counters the members share
 * are integer-valued until extrapolation, so a sum split across parts
 * equals the unsplit one. Each member's result is bitwise its solo
 * run's.
 *
 * The data caches persist across kernels (owned by the devices); the
 * L0/L1 I-caches are rebuilt per run() since each kernel has different
 * code.
 */
class WarpPipeline
{
  public:
    /**
     * @param members The group, at least one; its caches are borrowed.
     * @param rng     The dependency-draw stream every member's device
     *                holds at the same state; run() advances it.
     */
    WarpPipeline(const GpuConfig &config, std::vector<MemberCaches> members,
                 Rng &rng);

    /** A group of one. */
    WarpPipeline(const GpuConfig &config, CacheModel &l1, CacheModel &l2,
                 Rng &rng)
        : WarpPipeline(config, {{&l1, &l2}}, rng)
    {
    }

    /**
     * Simulate one wave for every member, results in member order.
     * @param warps Recorded traces of the resident warps (borrowed;
     *              pointers let the replay path feed stored traces
     *              without copying them).
     * @param desc  The launch (for code size, ILP, bypass hints).
     */
    std::vector<WaveResult>
    runGroup(const std::vector<const WarpTrace *> &warps,
             const KernelDesc &desc);

    /** Simulate one wave for a group of one. */
    WaveResult
    run(const std::vector<const WarpTrace *> &warps, const KernelDesc &desc)
    {
        GNN_ASSERT(members_.size() == 1, "run() on a group of %zu",
                   members_.size());
        return runGroup(warps, desc)[0];
    }

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
    std::vector<MemberCaches> members_;
    Rng &rng_;
};

} // namespace gnnmark

#endif // GNNMARK_SIM_WARP_PIPELINE_HH
