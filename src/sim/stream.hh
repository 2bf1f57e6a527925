/**
 * @file
 * Per-iteration kernel timelines for the DDP overlap model.
 *
 * TimelineCollector observes a GpuDevice's kernel/transfer records
 * plus the phase marks the driving layers insert (iteration begin,
 * backward begin/end) and segments the launch stream into
 * per-iteration IterationTimelines — the input the DDP overlap model
 * (ddp::overlapCommCost) prices gradient buckets against.
 */

#ifndef GNNMARK_SIM_STREAM_HH
#define GNNMARK_SIM_STREAM_HH

#include <cstdint>
#include <vector>

#include "sim/kernel_record.hh"

namespace gnnmark {

/**
 * Kernel-timeline segmentation of one measured training iteration,
 * in *cumulative kernel time* from the iteration's first launch.
 * wallAtKernelTime() maps those points onto the device wall clock,
 * accounting for the transfer prologue and for dispatch-bound
 * stretching (when launch overhead, not kernel time, paces the
 * stream).
 */
struct IterationTimeline
{
    double kernelSec = 0;     ///< sum of kernel durations
    double transferSec = 0;   ///< host-to-device copy time
    int64_t kernelCount = 0;
    double launchOverheadSec = 0; ///< per-launch dispatch cost

    /** Backward window bounds; < 0 when no backward phase ran. */
    double backwardBeginKernelSec = -1;
    double backwardEndKernelSec = -1;
    /** Cumulative kernel time at each backward kernel's completion. */
    std::vector<double> backwardKernelEnds;

    bool hasBackward() const
    {
        return backwardBeginKernelSec >= 0 &&
               backwardEndKernelSec >= backwardBeginKernelSec &&
               !backwardKernelEnds.empty();
    }

    /** Iteration wall time (dispatch-aware, plus transfers). */
    double wallSec() const;

    /**
     * Wall-clock time at which cumulative kernel time `t` is reached.
     * Transfers are modeled as an iteration prologue; kernel time is
     * stretched uniformly when the stream is dispatch-bound.
     */
    double wallAtKernelTime(double t) const;

    /**
     * Wall-clock point at which the gradient for bucket `index` of
     * `count` equal buckets is ready: buckets fill in backward kernel
     * order, so bucket i completes at the ceil(N*(i+1)/count)-th
     * backward kernel's end. Falls back to the end of the iteration's
     * kernel stream when no backward window was marked.
     */
    double bucketReadySec(int index, int count) const;
};

/**
 * KernelObserver that splits a device's launch stream into
 * per-iteration timelines using phase marks. Kernels launched before
 * the first IterationBegin mark (warm-up) are ignored.
 */
class TimelineCollector : public KernelObserver
{
  public:
    explicit TimelineCollector(double launch_overhead_sec)
        : launchOverheadSec_(launch_overhead_sec)
    {
    }

    void onKernel(const KernelRecord &record) override;
    void onTransfer(const TransferRecord &record) override;
    void onPhase(PhaseMark mark) override;

    const std::vector<IterationTimeline> &iterations() const
    {
        return iterations_;
    }

  private:
    double launchOverheadSec_;
    std::vector<IterationTimeline> iterations_;
    bool inBackward_ = false;
};

} // namespace gnnmark

#endif // GNNMARK_SIM_STREAM_HH
