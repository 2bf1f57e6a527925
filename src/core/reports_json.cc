#include "core/reports_json.hh"

#include "ops/dispatch.hh"

#include "base/string_utils.hh"

namespace gnnmark {
namespace reports {

void
profileJson(obs::JsonWriter &w, const WorkloadProfile &profile)
{
    const Profiler &prof = profile.profiler;

    w.beginObject();
    w.key("total_kernel_time_sec").value(prof.totalKernelTimeSec());
    w.key("total_launches").value(prof.totalLaunches());
    w.key("wall_sim_time_sec").value(profile.wallTimeSec);
    w.key("epoch_time_sec").value(profile.epochTimeSec);
    w.key("iterations_per_epoch").value(profile.iterationsPerEpoch);
    w.key("parameter_bytes").value(profile.parameterBytes);

    // Fig. 2: execution-time breakdown by op class.
    const auto breakdown = prof.opTimeBreakdown();
    w.key("fig2_op_time_breakdown").beginObject();
    for (OpClass c : allOpClasses()) {
        w.key(opClassName(c))
            .value(breakdown[static_cast<size_t>(c)]);
    }
    w.endObject();

    // Fig. 3: dynamic instruction mix.
    const auto mix = prof.instructionMix();
    w.key("fig3_instruction_mix").beginObject();
    w.key("int32").value(mix.int32Frac);
    w.key("fp32").value(mix.fp32Frac);
    w.key("other").value(mix.otherFrac);
    w.endObject();

    // Fig. 4: arithmetic throughput.
    w.key("fig4_throughput").beginObject();
    w.key("gflops").value(prof.gflops());
    w.key("giops").value(prof.giops());
    w.key("avg_ipc").value(prof.avgIpc());
    w.endObject();

    // Fig. 5: stall distribution.
    const StallVector stalls = prof.stallBreakdown();
    w.key("fig5_stall_breakdown").beginObject();
    for (size_t r = 0; r < kNumStallReasons; ++r) {
        w.key(stallReasonName(static_cast<StallReason>(r)))
            .value(stalls[r]);
    }
    w.endObject();

    // Fig. 6: caches and divergence.
    w.key("fig6_cache").beginObject();
    w.key("l1_hit_rate").value(prof.l1HitRate());
    w.key("l2_hit_rate").value(prof.l2HitRate());
    w.key("divergent_load_fraction")
        .value(prof.divergentLoadFraction());
    w.endObject();

    // Figs. 7-8: transfer sparsity.
    w.key("fig7_sparsity").beginObject();
    w.key("avg_transfer_sparsity").value(prof.avgTransferSparsity());
    w.key("total_transfer_bytes").value(prof.totalTransferBytes());
    w.key("total_transfer_time_sec")
        .value(prof.totalTransferTimeSec());
    w.endObject();

    w.key("losses").beginArray();
    for (float loss : profile.losses)
        w.value(static_cast<double>(loss));
    w.endArray();
    w.endObject();
}

std::string
figuresJson(const std::vector<WorkloadProfile> &profiles)
{
    obs::JsonWriter w;
    w.beginObject();
    w.key("workloads").beginObject();
    for (const WorkloadProfile &profile : profiles) {
        w.key(profile.name);
        profileJson(w, profile);
    }
    w.endObject();
    w.endObject();
    return w.str();
}

std::string
scalingJson(
    const std::vector<std::pair<std::string, std::vector<ScalingResult>>>
        &curves)
{
    obs::JsonWriter w;
    w.beginObject();
    w.key("fig9_scaling").beginObject();
    for (const auto &[name, curve] : curves) {
        w.key(name).beginArray();
        for (const ScalingResult &point : curve) {
            w.beginObject();
            w.key("world_size").value(point.worldSize);
            w.key("epoch_time_sec").value(point.epochTimeSec);
            w.key("compute_time_sec").value(point.computeTimeSec);
            w.key("comm_time_sec").value(point.commTimeSec);
            w.key("comm_exposed_sec").value(point.commExposedSec);
            w.key("overlap_frac").value(point.overlapFrac);
            w.key("speedup").value(point.speedup);
            w.endObject();
        }
        w.endArray();
    }
    w.endObject();
    w.endObject();
    return w.str();
}

std::string
scalingRecordJson(const std::string &workload, bool weak,
                  bool overlap_on,
                  const std::vector<ScalingResult> &curve)
{
    obs::JsonWriter w;
    w.beginObject();
    w.key("type").value("scaling");
    w.key("workload").value(workload);
    w.key("mode").value(weak ? "weak" : "strong");
    w.key("overlap").value(overlap_on ? "on" : "off");
    for (const ScalingResult &point : curve) {
        w.key(strfmt("w%d", point.worldSize)).beginObject();
        w.key("epoch_time_sec").value(point.epochTimeSec);
        w.key("compute_time_sec").value(point.computeTimeSec);
        w.key("ddp").beginObject();
        w.key("comm_total_sec").value(point.commTimeSec);
        w.key("comm_exposed_sec").value(point.commExposedSec);
        w.key("overlap_frac").value(point.overlapFrac);
        w.endObject();
        w.key("speedup").value(point.speedup);
        w.endObject();
    }
    w.endObject();
    return w.str();
}

std::string
faultJson(const FaultToleranceResult &result)
{
    obs::JsonWriter w;
    w.beginObject();
    w.key("fault_tolerance").beginObject();
    w.key("workload").value(result.workload);
    w.key("world_start").value(result.worldStart);
    w.key("world_end").value(result.worldEnd);
    w.key("target_iterations").value(result.targetIterations);
    w.key("executed_iterations").value(result.executedIterations);
    w.key("replayed_iterations").value(result.replayedIterations);
    w.key("ideal_time_sec").value(result.idealTimeSec);
    w.key("total_time_sec").value(result.totalTimeSec);
    w.key("checkpoint_time_sec").value(result.checkpointTimeSec);
    w.key("recovery_time_sec").value(result.recoveryTimeSec);
    w.key("goodput").value(result.goodput);
    w.key("events").beginArray();
    for (const FaultRecord &event : result.events) {
        w.beginObject();
        w.key("kind").value(static_cast<int>(event.kind));
        w.key("sim_time_sec").value(event.simTimeSec);
        w.key("replica").value(event.replica);
        w.key("detection_sec").value(event.detectionSec);
        w.key("rollback_sec").value(event.rollbackSec);
        w.key("reshard_sec").value(event.reshardSec);
        w.key("slowdown_sec").value(event.slowdownSec);
        w.key("lost_iterations").value(event.lostIterations);
        w.key("world_before").value(event.worldBefore);
        w.key("world_after").value(event.worldAfter);
        w.endObject();
    }
    w.endArray();
    w.endObject();
    w.endObject();
    return w.str();
}

std::string
runManifestJson(const WorkloadProfile &profile, const RunOptions &options,
                int threads, double host_wall_us)
{
    obs::JsonWriter w;
    w.beginObject();
    w.key("type").value("manifest");
    w.key("workload").value(profile.name);
    w.key("seed").value(static_cast<int64_t>(options.seed));
    w.key("scale").value(options.scale);
    w.key("iterations").value(options.iterations);
    w.key("warmup_iterations").value(options.warmupIterations);
    w.key("inference_only").value(options.inferenceOnly);
    w.key("threads").value(threads);
    w.key("host_wall_us").value(host_wall_us);
    w.key("profile");
    profileJson(w, profile);
    w.endObject();
    return w.str();
}

std::string
memstatsJson(const std::vector<WorkloadProfile> &profiles)
{
    obs::JsonWriter w;
    w.beginObject();
    w.key("memstats").beginObject();
    for (const WorkloadProfile &p : profiles) {
        const AllocSummary &m = p.memStats;
        w.key(p.name).beginObject();
        w.key("mode").value(m.mode);
        w.key("bytes_peak").value(static_cast<int64_t>(m.bytesPeak));
        w.key("slabs_mapped")
            .value(static_cast<int64_t>(m.slabsMapped));
        w.key("requests_total")
            .value(static_cast<int64_t>(m.requestsTotal));
        w.key("heap_calls_total")
            .value(static_cast<int64_t>(m.heapCallsTotal));
        w.key("cache_hit_rate").value(m.cacheHitRate);
        w.key("steady_alloc_calls_per_iter")
            .value(static_cast<int64_t>(m.steadyAllocCallsPerIter));
        w.key("steady_requests_per_iter")
            .value(static_cast<int64_t>(m.steadyRequestsPerIter));
        w.endObject();
    }
    w.endObject();
    w.endObject();
    return w.str();
}

namespace {

/** Shared body of servingJson / servingRecordJson. */
void
servingBody(obs::JsonWriter &w, const serve::ServingReport &rep)
{
    w.key("config").beginObject();
    w.key("arrival").value(rep.arrival);
    w.key("faults").value(rep.faultScenario);
    w.key("rate_per_sec").value(rep.ratePerSec);
    w.key("duration_sec").value(rep.durationSec);
    w.key("slo_ms").value(rep.sloMs);
    w.key("replicas").value(rep.replicas);
    w.key("max_batch").value(rep.maxBatch);
    w.key("seed").value(static_cast<int64_t>(rep.seed));
    w.key("hedge").value(rep.hedgeEnabled);
    w.key("shed").value(rep.shedEnabled);
    w.key("fallback").value(rep.fallbackEnabled);
    w.endObject();

    w.key("outcomes").beginObject();
    w.key("offered").value(rep.offered);
    w.key("full").value(rep.full);
    w.key("fallback").value(rep.fallback);
    w.key("shed").value(rep.shed);
    w.key("lost").value(rep.lost);
    w.key("slo_met").value(rep.sloMet);
    w.key("goodput_per_sec").value(rep.goodputPerSec);
    w.endObject();

    w.key("latency_ms").beginObject();
    w.key("p50").value(rep.p50Ms);
    w.key("p95").value(rep.p95Ms);
    w.key("p99").value(rep.p99Ms);
    w.key("mean").value(rep.meanMs);
    w.key("max").value(rep.maxMs);
    w.endObject();

    w.key("robustness").beginObject();
    w.key("retries").value(rep.retries);
    w.key("hedges").value(rep.hedgesLaunched);
    w.key("hedge_wins").value(rep.hedgeWins);
    w.key("timeouts").value(rep.timeouts);
    w.key("breaker_opens").value(rep.breakerOpens);
    w.key("cache_hit_rate").value(rep.cacheHitRate);
    w.key("cache_hits").value(rep.cacheHits);
    w.key("cache_misses").value(rep.cacheMisses);
    w.endObject();

    w.key("batching").beginObject();
    w.key("batches").value(rep.batches);
    w.key("mean_size").value(rep.meanBatchSize);
    w.key("busy_sec").value(rep.busySec);
    w.key("cancelled_sec").value(rep.cancelledSec);
    w.key("utilization").value(rep.utilization);
    w.key("horizon_sec").value(rep.horizonSec);
    w.endObject();

    w.key("replicas").beginArray();
    for (const serve::ReplicaReport &r : rep.perReplica) {
        w.beginObject();
        w.key("replica").value(r.replica);
        w.key("batches_completed").value(r.batchesCompleted);
        w.key("batches_cancelled").value(r.batchesCancelled);
        w.key("timeouts").value(r.timeouts);
        w.key("breaker_opens").value(r.breakerOpens);
        w.key("breaker").value(r.breakerFinal);
        w.key("busy_sec").value(r.busySec);
        w.key("cancelled_sec").value(r.cancelledSec);
        w.endObject();
    }
    w.endArray();

    // Timeline / tracing sections appear only when the run enabled
    // them, so pre-windowing outputs stay byte-identical.
    if (rep.windowSec > 0) {
        w.key("timeline").beginObject();
        w.key("window_sec").value(rep.windowSec);
        w.key("slo_target").value(rep.sloTarget);
        w.key("budget_consumed").value(rep.budgetConsumed);
        w.key("windows").beginArray();
        for (const serve::ServingWindow &win : rep.windows) {
            w.beginObject();
            w.key("index").value(win.index);
            w.key("start_sec").value(win.startSec);
            w.key("end_sec").value(win.endSec);
            w.key("offered").value(win.offered);
            w.key("full").value(win.full);
            w.key("fallback").value(win.fallback);
            w.key("shed").value(win.shed);
            w.key("lost").value(win.lost);
            w.key("slo_met").value(win.sloMet);
            w.key("goodput_per_sec").value(win.goodputPerSec);
            w.key("resolved").value(win.resolved);
            w.key("p50_ms").value(win.p50Ms);
            w.key("p95_ms").value(win.p95Ms);
            w.key("p99_ms").value(win.p99Ms);
            w.key("queue_depth_mean").value(win.queueDepthMean);
            w.key("queue_depth_max").value(win.queueDepthMax);
            w.key("burn_rate").value(win.burnRate);
            w.key("budget_consumed").value(win.budgetConsumed);
            w.endObject();
        }
        w.endArray();
        w.key("alerts").beginArray();
        for (const obs::SloAlert &a : rep.alerts) {
            w.beginObject();
            w.key("rule").value(a.rule);
            w.key("severity").value(a.severity);
            w.key("start_window").value(a.startWindow);
            w.key("end_window").value(a.endWindow);
            w.key("start_sec").value(a.startSec);
            w.key("end_sec").value(a.endSec);
            w.key("peak_burn").value(a.peakBurn);
            w.key("error_fraction").value(a.errorFraction);
            w.endObject();
        }
        w.endArray();
        w.endObject();
    }
    if (rep.traceSampleEvery > 0) {
        w.key("tracing").beginObject();
        w.key("sample_every").value(rep.traceSampleEvery);
        w.key("traced_requests").value(rep.tracedRequests);
        w.endObject();
    }
}

} // namespace

std::string
servingJson(const serve::ServingReport &report)
{
    obs::JsonWriter w;
    w.beginObject();
    w.key("serving").beginObject();
    servingBody(w, report);
    w.endObject();
    w.endObject();
    return w.str();
}

namespace {

/**
 * Shared deterministic body of genJson / genRecordJson. Wall-clock
 * figures are deliberately absent; genRecordJson appends them so only
 * the telemetry record carries timing.
 */
void
genBody(obs::JsonWriter &w, const gen::GenReport &rep)
{
    w.key("config").beginObject();
    w.key("family").value(rep.family);
    w.key("requested_n").value(rep.requestedVertices);
    w.key("n").value(rep.vertices);
    w.key("target_edges").value(rep.targetEdges);
    w.key("chunks").value(rep.chunks);
    w.key("lookahead").value(rep.lookahead);
    w.key("seed").value(static_cast<int64_t>(rep.seed));
    w.endObject();

    w.key("stream").beginObject();
    w.key("edges").value(rep.edges);
    w.key("chunks_emitted").value(rep.chunksEmitted);
    // 64-bit checksum as 32-bit halves: JSON numbers are doubles and
    // lose bits past 2^53.
    w.key("checksum_hi")
        .value(static_cast<int64_t>(rep.checksum >> 32));
    w.key("checksum_lo")
        .value(static_cast<int64_t>(rep.checksum & 0xffffffffULL));
    w.key("peak_resident_bytes").value(rep.peakResidentBytes);
    w.key("resident_budget_bytes").value(rep.residentBudgetBytes);
    w.endObject();

    if (const std::optional<gen::DegreeStats> &d = rep.degrees) {
        w.key("degrees").beginObject();
        w.key("tracked").value(d->vertices);
        w.key("stride").value(d->sampleStride);
        w.key("min").value(d->minDegree);
        w.key("max").value(d->maxDegree);
        w.key("mean").value(d->meanDegree);
        w.key("modal_degree").value(d->modalDegree);
        w.key("modal_fraction").value(d->modalFraction);
        w.key("distinct").value(d->distinctDegrees);
        w.key("slope_valid").value(d->slopeValid);
        w.key("loglog_slope").value(d->powerLawSlope);
        w.endObject();
    }

    if (const std::optional<gen::StreamTrainResult> &t = rep.training) {
        w.key("training").beginObject();
        w.key("batches").value(t->batches);
        w.key("edges_consumed").value(t->edgesConsumed);
        w.key("first_loss").value(t->firstLoss);
        w.key("last_loss").value(t->lastLoss);
        w.key("peak_resident_bytes").value(t->peakResidentBytes);
        if (rep.trainWindowChunks > 0) {
            w.key("window_chunks").value(rep.trainWindowChunks);
            w.key("windows").beginArray();
            for (const gen::GenTrainWindow &win : rep.trainWindows) {
                w.beginObject();
                w.key("index").value(win.index);
                w.key("first_chunk").value(win.firstChunk);
                w.key("last_chunk").value(win.lastChunk);
                w.key("chunks").value(win.chunks);
                w.key("edges").value(win.edges);
                w.key("mean_loss").value(win.meanLoss);
                w.key("min_loss").value(win.minLoss);
                w.key("max_loss").value(win.maxLoss);
                w.endObject();
            }
            w.endArray();
        }
        w.endObject();
    }
}

} // namespace

std::string
genJson(const gen::GenReport &report)
{
    obs::JsonWriter w;
    w.beginObject();
    w.key("generation").beginObject();
    genBody(w, report);
    w.endObject();
    w.endObject();
    return w.str();
}

std::string
genRecordJson(const std::string &label, const gen::GenReport &report)
{
    obs::JsonWriter w;
    w.beginObject();
    w.key("type").value("generation");
    w.key("label").value(label);
    genBody(w, report);
    w.key("threads").value(report.threads);
    // host_* fields are wall clock and excluded from diffs.
    w.key("host_wall_sec").value(report.wallSec);
    w.key("host_edges_per_sec").value(report.edgesPerSec);
    w.endObject();
    return w.str();
}

std::string
servingRecordJson(const std::string &label,
                  const serve::ServingReport &report)
{
    obs::JsonWriter w;
    w.beginObject();
    w.key("type").value("serving");
    w.key("label").value(label);
    servingBody(w, report);
    w.endObject();
    return w.str();
}

std::string
sloAlertRecordJson(const std::string &label,
                   const serve::ServingReport &report,
                   const obs::SloAlert &alert)
{
    obs::JsonWriter w;
    w.beginObject();
    w.key("type").value("slo_alert");
    w.key("label").value(label);
    w.key("rule").value(alert.rule);
    w.key("severity").value(alert.severity);
    w.key("start_window").value(alert.startWindow);
    w.key("end_window").value(alert.endWindow);
    w.key("start_sec").value(alert.startSec);
    w.key("end_sec").value(alert.endSec);
    w.key("peak_burn").value(alert.peakBurn);
    w.key("error_fraction").value(alert.errorFraction);
    w.key("window_sec").value(report.windowSec);
    w.key("slo_target").value(report.sloTarget);
    w.key("faults").value(report.faultScenario);
    w.endObject();
    return w.str();
}

std::string
opstatsJson()
{
    const ops::DispatchStats s = ops::Dispatch::instance().stats();
    obs::JsonWriter w;
    w.beginObject();
    w.key("opstats").beginObject();
    w.key("simd").value(s.simd);
    w.key("calibrated").value(s.calibrated);
    w.key("calib_ms").value(s.calibMs);
    w.key("gemm_naive").value(s.gemmNaive);
    w.key("gemm_tiled").value(s.gemmTiled);
    w.key("spmm_csr_scalar").value(s.spmmCsrScalar);
    w.key("spmm_csr_vector").value(s.spmmCsrVector);
    w.key("spmm_coo").value(s.spmmCoo);
    w.key("spmm_bell").value(s.spmmBell);
    w.endObject();
    w.endObject();
    return w.str();
}

} // namespace reports
} // namespace gnnmark
