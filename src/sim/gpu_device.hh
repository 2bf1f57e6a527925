/**
 * @file
 * The simulated GPU.
 *
 * A GpuDevice accepts kernel launches (KernelDesc) from the operator
 * layer, simulates a sampled subset of warps in detail through the
 * cache/pipeline models, scales the results to the full grid, and
 * forwards a KernelRecord to registered observers. Per kernel name it
 * performs up to `detailSampleLimit` detailed simulations and reuses
 * averaged per-warp rates afterwards — mirroring the paper's nvprof
 * methodology of profiling each kernel for a bounded number of
 * invocations.
 *
 * Host-to-device copies are timed over a PCIe model and their sparsity
 * (fraction of zero values) is recorded, reproducing the paper's
 * patched-PyTorch transfer instrumentation.
 */

#ifndef GNNMARK_SIM_GPU_DEVICE_HH
#define GNNMARK_SIM_GPU_DEVICE_HH

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "base/rng.hh"
#include "sim/cache_model.hh"
#include "sim/gpu_config.hh"
#include "sim/kernel_desc.hh"
#include "sim/kernel_record.hh"
#include "sim/trace_hook.hh"

namespace gnnmark {

/** A simulated GPU with persistent caches and a device timeline. */
class GpuDevice
{
  public:
    explicit GpuDevice(GpuConfig config = GpuConfig::v100(),
                       uint64_t seed = 1);

    const GpuConfig &config() const { return cfg_; }

    /** Execute a kernel; returns the (possibly sampled) metrics. */
    KernelRecord launch(const KernelDesc &desc);

    /**
     * @{ Timed, sparsity-instrumented host-to-device copies.
     * `device_addr` is the deterministic simulated address the bytes
     * land at (a Tensor's deviceAddr() or a DeviceSpan).
     */
    TransferRecord copyHostToDevice(const float *data, size_t count,
                                    uint64_t device_addr,
                                    const std::string &tag);
    TransferRecord copyHostToDevice(const int32_t *data, size_t count,
                                    uint64_t device_addr,
                                    const std::string &tag);
    /** @} */

    /**
     * @{ Timeline phase marks. Cost-free annotations the driving
     * layers insert between launches; forwarded to observers (as
     * PhaseMarks) and to the trace hook (as TraceMarkers), so both
     * live profilers and replayed traces can segment the kernel
     * stream into iterations and backward windows.
     */
    void markIterationBegin();
    void markBackwardBegin();
    void markBackwardEnd();
    /** @} */

    /** Register an observer that receives every kernel/transfer. */
    void addObserver(KernelObserver *observer);

    /**
     * Attach (or detach, with nullptr) a capture hook that receives
     * the raw emission stream — launches with their detail-simulated
     * warp traces, transfer footprints, timeline markers. At most one
     * hook is active; recording costs one WarpTrace copy per sampled
     * warp and nothing when detached.
     */
    void setTraceHook(DeviceTraceHook *hook) { hook_ = hook; }

    /**
     * Re-issue a recorded host-to-device copy: the data itself is
     * gone, only its device address span and zero-value fraction
     * remain. The live copyHostToDevice paths count the zero fraction
     * and issue their copy through here, so both take the same L2
     * install and PCIe timing.
     */
    TransferRecord replayHostToDevice(uint64_t addr, uint64_t bytes,
                                      double zero_fraction,
                                      const std::string &tag);

    /** Sum of simulated kernel durations. */
    double kernelTimeSec() const { return kernelTime_; }

    /** Sum of host-to-device transfer times. */
    double transferTimeSec() const { return transferTime_; }

    /**
     * Wall time of the launch stream: kernel execution overlaps the
     * host-side dispatch (asynchronous launches), so the stream is
     * bound by whichever is longer, plus the transfers.
     */
    double
    wallTimeSec() const
    {
        double dispatch =
            static_cast<double>(kernelCount_) * cfg_.launchOverheadSec;
        return std::max(kernelTime_, dispatch) + transferTime_;
    }

    int64_t kernelCount() const { return kernelCount_; }

    /** Zero the timeline (sampling caches and data caches persist). */
    void resetTimers();

    /** Drop all cached lines (L1s and L2). */
    void flushCaches();

    /** Forget per-kernel-name sampling state. */
    void resetSampling();

  private:
    /** Averaged per-warp rates for a kernel name. */
    struct SampleState
    {
        int64_t invocations = 0;
        int detailedRuns = 0;
        // Sums over detailed runs of per-warp counters and per-wave
        // cycles.
        SimCounters perWarp;
        double cyclesPerWave = 0;
    };

    struct Geometry
    {
        int64_t totalWarps;
        int residentBlocks; ///< blocks co-resident on one SM
        int64_t waves;      ///< sequential waves per SM
        int activeSms;
    };

    Geometry computeGeometry(const KernelDesc &desc) const;
    KernelRecord simulateDetailed(
        const KernelDesc &desc, const Geometry &geo, SampleState &state,
        std::vector<std::pair<int64_t, WarpTrace>> *captured);
    KernelRecord replayFromSample(const Geometry &geo,
                                  const SampleState &state);
    void finishRecord(KernelRecord &record, const Geometry &geo);
    TransferRecord recordTransfer(double bytes, double zero_fraction,
                                  const std::string &tag);
    void installInL2(uint64_t addr, size_t bytes);
    void notify(const KernelRecord &record);

    GpuConfig cfg_;
    Rng rng_;
    CacheModel l2_;
    std::vector<CacheModel> l1s_; ///< one per simulated SM
    std::unordered_map<std::string, SampleState> samples_;
    std::vector<KernelObserver *> observers_;
    DeviceTraceHook *hook_ = nullptr;

    double kernelTime_ = 0;
    double transferTime_ = 0;
    int64_t kernelCount_ = 0;
};

} // namespace gnnmark

#endif // GNNMARK_SIM_GPU_DEVICE_HH
