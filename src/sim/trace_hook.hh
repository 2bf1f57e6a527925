/**
 * @file
 * Capture hook on the device emission path.
 *
 * A DeviceTraceHook observes everything a GpuDevice consumes — kernel
 * launches with the warp traces chosen for detailed simulation,
 * host-to-device copies reduced to their footprint/sparsity, and the
 * timeline markers the drivers insert — which is exactly the
 * information needed to re-drive the cache/pipeline models later
 * without the tensor/op/model stack (NVBit-style capture once, replay
 * under any GpuConfig). The recorder lives in src/trace; this header
 * only defines the seam so the sim layer stays free of serialization
 * concerns.
 */

#ifndef GNNMARK_SIM_TRACE_HOOK_HH
#define GNNMARK_SIM_TRACE_HOOK_HH

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "sim/kernel_desc.hh"
#include "sim/warp_trace.hh"

namespace gnnmark {

/** Timeline markers drivers emit between launches (replayed as-is). */
enum class TraceMarker : uint8_t
{
    IterationBegin, ///< a measured training iteration starts
    TimersReset,    ///< GpuDevice::resetTimers (end of warm-up)
    CachesFlushed,  ///< GpuDevice::flushCaches
    SamplingReset,  ///< GpuDevice::resetSampling
    BackwardBegin,  ///< autograd reverse sweep starts (format v2)
    BackwardEnd,    ///< autograd reverse sweep done (format v2)
    NumMarkers
};

/** Observer of the full device input stream (see file comment). */
class DeviceTraceHook
{
  public:
    virtual ~DeviceTraceHook() = default;

    /**
     * One kernel launch. `traced` holds the warps the device simulated
     * in detail this launch (empty when the launch reused averaged
     * sampling state), as (global warp id, recorded trace) pairs.
     */
    virtual void
    onLaunch(const KernelDesc &desc,
             std::vector<std::pair<int64_t, WarpTrace>> traced) = 0;

    /** One host-to-device copy, reduced to footprint and sparsity. */
    virtual void onTransfer(uint64_t addr, uint64_t bytes,
                            double zero_fraction,
                            const std::string &tag) = 0;

    /** A driver-inserted timeline marker. */
    virtual void onMarker(TraceMarker marker) = 0;
};

} // namespace gnnmark

#endif // GNNMARK_SIM_TRACE_HOOK_HH
