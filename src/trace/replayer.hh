/**
 * @file
 * Trace replay: drives a recorded stream straight through a fresh
 * GpuDevice (cache models, warp pipeline, stall attribution, PCIe
 * timing) without touching the tensor/op/nn/model stack.
 *
 * On the recording GpuConfig the replay is bitwise-identical to the
 * live run: the same warps are requested in the same order, the same
 * footprints install into the L2, the device RNG is reseeded from the
 * header, so every profiler aggregate matches exactly. On a different
 * config the replay prices the what-if: cache models, pipeline and
 * bandwidth bounds all resize, while warp selection falls back to the
 * recorded sample when the new geometry asks for warps the recording
 * never simulated (exact id first, then the kernel's warp archive by
 * id, then by index modulo — the standard sampled-trace approximation).
 */

#ifndef GNNMARK_TRACE_REPLAYER_HH
#define GNNMARK_TRACE_REPLAYER_HH

#include <vector>

#include "profiler/workload_profile.hh"
#include "sim/gpu_config.hh"
#include "sim/stream.hh"
#include "trace/trace.hh"

namespace gnnmark {
namespace trace {

/**
 * A characterization profile rebuilt from a trace: losses, epoch
 * geometry and parameter bytes come from the header, everything else
 * from replaying the stream. Pass it wherever a WorkloadProfile is
 * read.
 */
struct ReplayResult : WorkloadProfile
{
    /**
     * Per-iteration kernel timelines with backward windows, rebuilt
     * from the recorded phase markers (empty for traces recorded
     * before format v2) — the input the DDP overlap model needs to
     * price compute–comm overlap offline.
     */
    std::vector<IterationTimeline> iterations;
};

/**
 * Replay `trace` on `config`. Extra observers (e.g. a chrome-trace
 * exporter) receive every kernel/transfer alongside the profiler.
 */
ReplayResult
replayTrace(const RecordedTrace &trace, const GpuConfig &config,
            const std::vector<KernelObserver *> &extra_observers = {});

/** Replay on the recording configuration (the fidelity case). */
ReplayResult replayTrace(const RecordedTrace &trace);

/**
 * One replay per config, results in config order — the what-if sweep
 * primitive. Points replay concurrently on the process thread pool
 * (each owns its device; the trace is shared read-only), which is
 * where the bulk of the sweep speedup over live re-training comes
 * from: a live run serialises on the tensor math, a sweep of replays
 * saturates the cores with cache-model work.
 */
std::vector<ReplayResult>
sweepTrace(const RecordedTrace &trace,
           const std::vector<GpuConfig> &configs);

} // namespace trace
} // namespace gnnmark

#endif // GNNMARK_TRACE_REPLAYER_HH
