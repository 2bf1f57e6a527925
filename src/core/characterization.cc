#include "core/characterization.hh"

#include "base/allocator.hh"
#include "base/logging.hh"
#include "core/suite.hh"
#include "obs/json.hh"
#include "obs/metrics.hh"
#include "obs/span.hh"
#include "obs/telemetry.hh"
#include "ops/exec_context.hh"
#include "sim/trace_hook.hh"

namespace gnnmark {

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

    // A fresh run means fresh counters, so each iteration record's
    // snapshot is the cumulative view of this run only.
    if (options_.telemetry != nullptr)
        obs::Metrics::instance().reset();

    GpuDevice device(options_.deviceConfig, options_.seed);
    device.addObserver(&profile.profiler);
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
            obs::Metrics &metrics = obs::Metrics::instance();
            metrics.setGauge("train.loss", loss);
            metrics.setGauge("train.iter_sim_us", iter_sim_us);
            // Only per-iteration deltas and live bytes go into
            // telemetry: cumulative counters (hits, peak, slabs) see
            // whatever state earlier runs left in the process-global
            // allocator, which would break same-process telemetry
            // determinism. The cumulative view lives in --memstats.
            metrics.setGauge("alloc.calls_iter",
                             static_cast<double>(iter_heap_calls));
            metrics.setGauge("alloc.requests_iter",
                             static_cast<double>(iter_requests));
            metrics.setGauge("alloc.bytes_live",
                             static_cast<double>(alloc_after.bytesLive));

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
            obs::writeMetricsSnapshot(w, metrics.snapshot());
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
