/**
 * @file
 * In-memory model of a captured kernel trace.
 *
 * A RecordedTrace is one training run reduced to the stream the
 * simulated GPU consumed: every kernel launch (with the warp traces
 * the device simulated in detail), every host-to-device copy reduced
 * to footprint + sparsity, and the timeline markers the driver
 * inserted. Replaying the stream through a fresh GpuDevice reproduces
 * the characterization of the recording run exactly on the recording
 * GpuConfig, and prices what-if configurations (L1/L2 size, SM count,
 * scheduler parameters) without re-executing the tensor/op/model
 * stack — the trace-once/analyze-many methodology of the paper's
 * nvprof/NVBit pipeline.
 *
 * The header additionally carries the run metadata a characterization
 * report needs but the device never sees (losses, epoch geometry,
 * parameter bytes), so a replayed report is a drop-in for a live one.
 */

#ifndef GNNMARK_TRACE_TRACE_HH
#define GNNMARK_TRACE_TRACE_HH

#include <cstdint>
#include <string>
#include <variant>
#include <vector>

#include "sim/gpu_config.hh"
#include "sim/kernel_desc.hh"
#include "sim/trace_hook.hh"
#include "sim/warp_trace.hh"

namespace gnnmark {
namespace trace {

/** Run metadata stamped into the file header. */
struct TraceHeader
{
    std::string workload; ///< suite name of the recorded workload
    uint64_t seed = 0;    ///< device/run seed (replay reuses it)
    double scale = 1.0;
    int32_t iterations = 0;       ///< measured training iterations
    int32_t warmupIterations = 0; ///< untimed steps before the reset
    bool inferenceOnly = false;
    int64_t iterationsPerEpoch = 0;
    double parameterBytes = 0;
    std::vector<float> losses;    ///< per measured iteration
    GpuConfig config;             ///< the recording configuration
};

/** One warp the device simulated in detail. */
struct TracedWarp
{
    int64_t warpId = 0;
    WarpTrace trace;
};

/** One kernel launch: its shape plus the warps simulated in detail. */
struct LaunchEvent : KernelShape
{
    std::vector<TracedWarp> warps; ///< empty for sampled-replay launches
};

/** One host-to-device copy, footprint + sparsity only. */
struct TransferEvent
{
    std::string tag;
    uint64_t addr = 0;
    uint64_t bytes = 0;
    double zeroFraction = 0;
};

using TraceEvent = std::variant<LaunchEvent, TransferEvent, TraceMarker>;

/** A complete captured run. */
struct RecordedTrace
{
    TraceHeader header;
    std::vector<TraceEvent> events;
};

} // namespace trace
} // namespace gnnmark

#endif // GNNMARK_TRACE_TRACE_HH
