/**
 * @file
 * The characterization driver: trains a workload on a simulated GPU
 * under a profiler and packages every metric the paper's evaluation
 * section reports.
 */

#ifndef GNNMARK_CORE_CHARACTERIZATION_HH
#define GNNMARK_CORE_CHARACTERIZATION_HH

#include <string>

#include "models/workload.hh"
#include "profiler/workload_profile.hh"
#include "sim/gpu_config.hh"

namespace gnnmark {

namespace obs {
class TelemetrySink;
} // namespace obs

class Allocator;
class DeviceTraceHook;

/** Knobs for one characterization run. */
struct RunOptions
{
    uint64_t seed = 42;
    double scale = 1.0;       ///< dataset scale factor
    int iterations = 8;       ///< measured training steps
    int warmupIterations = 1; ///< untimed steps before measuring
    bool inferenceOnly = false; ///< forward passes only
    GpuConfig deviceConfig = GpuConfig::v100();

    /**
     * Map the run's buffers from the fresh device address space, as a
     * process's first run does, so its figures do not depend on the
     * runs before it in the process. The run refuses to start while
     * anything is still mapped. Off, a run continues the process's
     * address space: the expected values of hostbench's replay-sweep,
     * which records three times in one process, pin that behaviour.
     */
    bool freshAddressSpace = false;

    /**
     * Optional capture hook (e.g. trace::TraceRecorder): receives
     * every launch, transfer, and timeline marker of the run so the
     * whole characterization can be replayed offline. Not owned.
     */
    DeviceTraceHook *traceHook = nullptr;

    /** Optional extra observer (e.g. a chrome-trace exporter). */
    KernelObserver *extraObserver = nullptr;

    /**
     * Optional telemetry sink: when set, the runner appends one
     * "iteration" JSONL record per measured step (loss, simulated
     * time, kernel count, and metrics: the run's gauges plus the sim
     * counters and histograms its own device has summed since setup).
     * Not owned. Record schema in obs/telemetry.hh.
     */
    obs::TelemetrySink *telemetry = nullptr;

    /**
     * Tensor allocator the run binds for its duration (not owned).
     * nullptr means defaultAllocator(), i.e. the GNNMARK_ALLOC choice.
     */
    Allocator *allocator = nullptr;
};

/** Runs workloads and collects WorkloadProfiles. */
class CharacterizationRunner
{
  public:
    explicit CharacterizationRunner(RunOptions options = RunOptions{});

    /** Train and profile one workload. */
    WorkloadProfile run(Workload &workload) const;

    /** Train and profile a workload by suite name. */
    WorkloadProfile run(const std::string &workload_name) const;

    const RunOptions &options() const { return options_; }

  private:
    RunOptions options_;
};

} // namespace gnnmark

#endif // GNNMARK_CORE_CHARACTERIZATION_HH
