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
 * primitive. Configs that differ only in data-cache geometry (L1 and
 * L2 size and ways) replay in lockstep: one device per point walks the
 * stream in step, and each detailed wave runs one issue loop for all
 * of them, splitting only where their issue gaps differ (see
 * WarpPipeline), so a group costs about one replay plus its members'
 * cache lookups. Each such class of configs splits into at most
 * ThreadPool::threadCount() contiguous groups, and the groups run
 * concurrently on the pool (each owns its devices; the trace is shared
 * read-only): with a thread per point, every point replays alone as
 * replayTrace would. Either way each result, and what observers[i]
 * receives for point i, is bitwise replayTrace(trace, configs[i],
 * observers[i]).
 */
std::vector<ReplayResult>
sweepTrace(const RecordedTrace &trace, const std::vector<GpuConfig> &configs,
           const std::vector<std::vector<KernelObserver *>> &observers = {});

} // namespace trace
} // namespace gnnmark

#endif // GNNMARK_TRACE_REPLAYER_HH
