#include "core/characterization.hh"

#include <cmath>

#include "base/allocator.hh"
#include "base/logging.hh"
#include "core/suite.hh"
#include "obs/json.hh"
#include "obs/span.hh"
#include "obs/telemetry.hh"
#include "ops/exec_context.hh"
#include "sim/trace_hook.hh"

namespace gnnmark {

namespace {

/**
 * Sums one device's launches and transfers, in launch order, into the
 * sim.* counters and log2 histograms of the run's telemetry records.
 */
class SimMetrics : public KernelObserver
{
  public:
    void
    onKernel(const KernelRecord &r) override
    {
        launches_ += 1;
        cycles_ += r.cycles;
        l1Hits_ += r.l1Hits;
        l1Accesses_ += r.l1Accesses;
        l2Hits_ += r.l2Hits;
        l2Accesses_ += r.l2Accesses;
        dramBytes_ += r.dramBytes;
        double stalls = 0;
        for (double sc : r.stallCycles)
            stalls += sc;
        stallCycles_ += stalls;
        ++kernelUs_[obs::histogramBucket(r.timeSec * 1e6)];
    }

    void
    onTransfer(const TransferRecord &t) override
    {
        transfers_ += 1;
        transferBytes_ += t.bytes;
        ++transferKb_[obs::histogramBucket(t.bytes / 1024.0)];
    }

    /** The sums so far, beside `gauges`. */
    obs::MetricsSnapshot
    snapshot(const std::map<std::string, double> &gauges) const
    {
        obs::MetricsSnapshot s;
        s.counters = {{"sim.kernel_launches", launches_},
                      {"sim.kernel_cycles", cycles_},
                      {"sim.l1_hits", l1Hits_},
                      {"sim.l1_accesses", l1Accesses_},
                      {"sim.l2_hits", l2Hits_},
                      {"sim.l2_accesses", l2Accesses_},
                      {"sim.dram_bytes", dramBytes_},
                      {"sim.stall_cycles", stallCycles_},
                      {"sim.transfers", transfers_},
                      {"sim.transfer_bytes", transferBytes_}};
        s.gauges = gauges;
        s.histograms = {{"sim.kernel_time_us", kernelUs_},
                        {"sim.transfer_kb", transferKb_}};
        return s;
    }

  private:
    double launches_ = 0, cycles_ = 0, l1Hits_ = 0, l1Accesses_ = 0;
    double l2Hits_ = 0, l2Accesses_ = 0, dramBytes_ = 0;
    double stallCycles_ = 0, transfers_ = 0, transferBytes_ = 0;
    std::array<int64_t, obs::kHistogramBuckets> kernelUs_{};
    std::array<int64_t, obs::kHistogramBuckets> transferKb_{};
};

} // namespace

CharacterizationRunner::CharacterizationRunner(RunOptions options)
    : options_(options)
{
}

WorkloadProfile
CharacterizationRunner::run(Workload &workload) const
{
    GNN_SPAN("run.workload");
    if (options_.freshAddressSpace)
        DeviceAddrSpace::instance().reset();
    WorkloadProfile profile;
    profile.name = workload.name();

    GpuDevice device(options_.deviceConfig, options_.seed);
    device.addObserver(&profile.profiler);
    // Each iteration record's metrics are the cumulative view of this
    // run's device only, from setup on.
    SimMetrics sim_metrics;
    std::map<std::string, double> gauges;
    if (options_.telemetry != nullptr)
        device.addObserver(&sim_metrics);
    if (options_.extraObserver != nullptr)
        device.addObserver(options_.extraObserver);
    device.setTraceHook(options_.traceHook);

    WorkloadConfig cfg;
    cfg.seed = options_.seed;
    cfg.scale = options_.scale;
    cfg.inferenceOnly = options_.inferenceOnly;
    workload.setup(cfg);

    Allocator *alloc = options_.allocator != nullptr
                           ? options_.allocator
                           : &defaultAllocator();
    ContextGuard guard(&device, alloc);
    for (int i = 0; i < options_.warmupIterations; ++i)
        workload.trainIteration();
    // Warm-up kernels stay in the profile (nvprof profiles the whole
    // run too), but the timer restarts for the epoch extrapolation.
    device.resetTimers();

    for (int i = 0; i < options_.iterations; ++i) {
        GNN_SPAN("train.iteration");
        // One call fans out to every observer (the profiler advances
        // its iteration counter) and to the trace hook.
        device.markIterationBegin();

        const double sim_before = device.wallTimeSec();
        const int64_t kernels_before = device.kernelCount();
        const double host_before = obs::SpanTracer::instance().nowUs();
        const AllocStats alloc_before = alloc->stats();

        const float loss = workload.trainIteration();
        profile.losses.push_back(loss);

        const AllocStats alloc_after = alloc->stats();
        const uint64_t iter_heap_calls =
            alloc_after.heapCalls - alloc_before.heapCalls;
        const uint64_t iter_requests =
            alloc_after.requests - alloc_before.requests;
        profile.memStats.mode = alloc->name();
        profile.memStats.bytesPeak = alloc_after.bytesPeak;
        profile.memStats.slabsMapped = alloc_after.slabsMapped;
        profile.memStats.requestsTotal = alloc_after.requests;
        profile.memStats.heapCallsTotal = alloc_after.heapCalls;
        profile.memStats.cacheHitRate = alloc_after.hitRate();
        profile.memStats.steadyAllocCallsPerIter = iter_heap_calls;
        profile.memStats.steadyRequestsPerIter = iter_requests;

        if (options_.telemetry != nullptr) {
            const double iter_sim_us =
                (device.wallTimeSec() - sim_before) * 1e6;
            // A diverged loss keeps the last finite value.
            if (std::isfinite(loss))
                gauges["train.loss"] = loss;
            gauges["train.iter_sim_us"] = iter_sim_us;
            // Only per-iteration deltas and live bytes go into
            // telemetry: cumulative counters (hits, peak, slabs) see
            // whatever state earlier runs left in the process-global
            // allocator, which would break same-process telemetry
            // determinism. The cumulative view lives in --memstats.
            gauges["alloc.calls_iter"] =
                static_cast<double>(iter_heap_calls);
            gauges["alloc.requests_iter"] =
                static_cast<double>(iter_requests);
            gauges["alloc.bytes_live"] =
                static_cast<double>(alloc_after.bytesLive);

            obs::JsonWriter w;
            w.beginObject();
            w.key("type").value("iteration");
            w.key("workload").value(profile.name);
            w.key("iteration").value(i);
            w.key("loss").value(static_cast<double>(loss));
            w.key("sim_time_us").value(iter_sim_us);
            w.key("kernels").value(device.kernelCount() -
                                   kernels_before);
            // host_* fields are wall clock and excluded from diffs.
            w.key("host_time_us")
                .value(obs::SpanTracer::instance().nowUs() -
                       host_before);
            w.key("metrics");
            obs::writeMetricsSnapshot(w, sim_metrics.snapshot(gauges));
            w.endObject();
            options_.telemetry->writeRecord(w.str());
        }
    }

    profile.wallTimeSec = device.wallTimeSec();
    profile.iterationsPerEpoch = workload.iterationsPerEpoch();
    profile.epochTimeSec =
        device.wallTimeSec() / options_.iterations *
        static_cast<double>(profile.iterationsPerEpoch);
    profile.parameterBytes = workload.parameterBytes();
    return profile;
}

WorkloadProfile
CharacterizationRunner::run(const std::string &workload_name) const
{
    auto workload = BenchmarkSuite::create(workload_name);
    return run(*workload);
}

} // namespace gnnmark
