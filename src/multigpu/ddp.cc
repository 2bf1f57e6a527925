#include "multigpu/ddp.hh"

#include <algorithm>
#include <cmath>
#include <map>

#include "base/logging.hh"
#include "core/checkpoint.hh"
#include "obs/span.hh"
#include "ops/exec_context.hh"

namespace gnnmark {

namespace {

/** Device-side detection latency for a failed (transient) kernel. */
constexpr double kTransientDetectSec = 0.5e-3;

} // namespace

namespace ddp {

int
bucketCount(double bytes)
{
    return std::max(
        1,
        static_cast<int>((bytes + kBucketBytes - 1) / kBucketBytes));
}

double
syncCommCost(const Interconnect &interconnect, double bytes, int world)
{
    if (world <= 1)
        return 0;
    return interconnect.allReduceTime(bytes, world) +
           bucketCount(bytes) * kMessageLatencySec +
           kDdpOverheadSec;
}

std::vector<double>
overlapBucketSizes(double bytes)
{
    if (bytes <= 0)
        return {};
    const double target = bytes / static_cast<double>(kTargetBuckets);
    const double size =
        std::min(kBucketBytes, std::max(target, kMinBucketBytes));
    const int count =
        std::max(1, static_cast<int>(std::ceil(bytes / size)));
    return std::vector<double>(static_cast<size_t>(count),
                               bytes / count);
}

CommCost
overlapCommCost(const Interconnect &interconnect, double bytes,
                int world, const IterationTimeline &timeline)
{
    CommCost out;
    if (world <= 1 || bytes <= 0)
        return out;

    const double lat = kMessageLatencySec;
    const double steps = 2.0 * (static_cast<double>(world) - 1.0);
    const std::vector<double> sizes = overlapBucketSizes(bytes);
    const int count = static_cast<int>(sizes.size());

    // Optimizer kernels can only start once all gradients are both
    // produced and reduced, so exposure is measured against the end
    // of the backward window (the iteration past that point is the
    // update step, which waits on comm anyway).
    const double bwd_finish = timeline.hasBackward()
        ? timeline.wallAtKernelTime(timeline.backwardEndKernelSec)
        : timeline.wallAtKernelTime(timeline.kernelSec);

    // One in-order comm stream: a bucket starts when it is ready or when
    // the previous bucket ends, whichever is later; `cursor` is the end
    // of the last bucket and `occupancy` the stream's busy time.
    double cursor = 0;
    double occupancy = 0;
    for (int i = 0; i < count; ++i) {
        const double ready = timeline.bucketReadySec(i, count);
        // Bandwidth share of this bucket's ring pass, via the same
        // Interconnect model the sync path prices with.
        double cost = std::max(
            0.0, interconnect.allReduceTime(sizes[static_cast<size_t>(i)],
                                            world) -
                     steps * lat);
        cost += lat; // per-bucket collective launch
        if (i == 0) {
            // The ring's per-step latencies pipeline across buckets;
            // charge the fill once, to the first bucket, where it can
            // still hide behind backward.
            cost += steps * lat;
        }
        const double start = std::max(ready, cursor);
        cursor = start + cost;
        occupancy += cursor - start;
    }
    out.totalSec = occupancy + kDdpOverheadSec;
    out.exposedSec =
        std::max(0.0, cursor - bwd_finish) + kDdpOverheadSec;
    return out;
}

ScalingResult
pricePoint(const Interconnect &interconnect,
           const std::vector<IterationTimeline> &timelines,
           double iter_transfer_sec, double epoch_compute_sec,
           double iterations_per_epoch, double parameter_bytes,
           bool sampler_ddp_compatible, int world,
           const DdpOptions &options)
{
    GNN_ASSERT(world >= 1, "world size must be >= 1");
    double iter_comm = 0;
    double iter_exposed = 0;
    if (world > 1) {
        // Replicated batches: every replica pulls the full input over
        // the shared host link, serialising the copies.
        double penalty = 0;
        if (!sampler_ddp_compatible)
            penalty = iter_transfer_sec * (world - 1);
        if (options.overlapComm && !timelines.empty()) {
            // Bucketed ring all-reduce drained by a comm stream that
            // overlaps the backward window of each iteration.
            double total = 0;
            double exposed = 0;
            for (const IterationTimeline &t : timelines) {
                CommCost c = overlapCommCost(interconnect, parameter_bytes,
                                             world, t);
                total += c.totalSec;
                exposed += c.exposedSec;
            }
            const double n = static_cast<double>(timelines.size());
            iter_comm = total / n + penalty;
            iter_exposed = exposed / n + penalty;
        } else {
            // Synchronous model: the all-reduce serializes after compute.
            iter_comm =
                syncCommCost(interconnect, parameter_bytes, world) +
                penalty;
            iter_exposed = iter_comm;
        }
    }
    ScalingResult res;
    res.worldSize = world;
    res.computeTimeSec = epoch_compute_sec;
    res.commTimeSec = iter_comm * iterations_per_epoch;
    res.commExposedSec = iter_exposed * iterations_per_epoch;
    res.epochTimeSec = res.computeTimeSec + res.commExposedSec;
    res.overlapFrac =
        res.commTimeSec > 0 ? 1.0 - res.commExposedSec / res.commTimeSec
                            : 0;
    return res;
}

void
setSpeedups(std::vector<ScalingResult> &curve, bool weak)
{
    double base_time = 0;
    for (const ScalingResult &r : curve) {
        if (r.worldSize == 1)
            base_time = r.epochTimeSec;
    }
    if (base_time == 0 && !curve.empty()) {
        base_time = curve.front().epochTimeSec;
        if (!weak)
            base_time *= curve.front().worldSize;
    }
    for (ScalingResult &r : curve) {
        r.speedup = base_time > 0 && r.epochTimeSec > 0
                        ? base_time / r.epochTimeSec
                        : 0;
    }
}

std::vector<ScalingResult>
scalingFromTimelines(const Interconnect &interconnect,
                     const std::vector<IterationTimeline> &timelines,
                     double epoch_compute_sec,
                     double iterations_per_epoch,
                     double parameter_bytes,
                     bool sampler_ddp_compatible,
                     const std::vector<int> &world_sizes,
                     const DdpOptions &options)
{
    double iter_transfer = 0;
    if (!timelines.empty()) {
        for (const IterationTimeline &t : timelines)
            iter_transfer += t.transferSec;
        iter_transfer /= static_cast<double>(timelines.size());
    }

    std::vector<ScalingResult> out;
    for (int world : world_sizes) {
        out.push_back(pricePoint(interconnect, timelines, iter_transfer,
                                 epoch_compute_sec, iterations_per_epoch,
                                 parameter_bytes, sampler_ddp_compatible,
                                 world, options));
    }
    setSpeedups(out, /*weak=*/true);
    return out;
}

} // namespace ddp

DdpTrainer::DdpTrainer(DdpOptions options) : options_(options)
{
}

ScalingResult
DdpTrainer::measureImpl(Workload &workload, const WorkloadConfig &base,
                        int world, int measured_iterations, bool weak)
{
    GNN_ASSERT(world >= 1, "world size must be >= 1");
    GNN_ASSERT(measured_iterations >= 1, "need at least one iteration");

    // Weak scaling keeps the per-GPU work at the full single-GPU
    // batch: run with worldSize 1 for the compute, then charge the
    // world-sized communication.
    WorkloadConfig cfg = base;
    cfg.worldSize = weak ? 1 : world;

    GpuDevice device(GpuConfig::v100(),
                     base.seed + (weak ? 100 + world : world));
    TimelineCollector timelines(device.config().launchOverheadSec);
    device.addObserver(&timelines);
    if (extraObserver_ != nullptr)
        device.addObserver(extraObserver_);
    workload.setup(cfg);

    ContextGuard guard(&device);
    workload.trainIteration(); // warm up sampling caches
    device.resetTimers();

    for (int i = 0; i < measured_iterations; ++i) {
        device.markIterationBegin();
        workload.trainIteration();
    }

    const double iter_compute =
        device.wallTimeSec() / measured_iterations;
    const double iter_transfer =
        device.transferTimeSec() / measured_iterations;
    const double iters =
        static_cast<double>(workload.iterationsPerEpoch());
    return ddp::pricePoint(
        interconnect_, timelines.iterations(), iter_transfer,
        iter_compute * iters, iters, workload.parameterBytes(),
        workload.samplerDdpCompatible(), world, options_);
}

ScalingResult
DdpTrainer::measure(Workload &workload, const WorkloadConfig &base,
                    int world, int measured_iterations)
{
    GNN_SPAN("ddp.measure");
    return measureImpl(workload, base, world, measured_iterations,
                       /*weak=*/false);
}

ScalingResult
DdpTrainer::measureWeak(Workload &workload, const WorkloadConfig &base,
                        int world, int measured_iterations)
{
    GNN_SPAN("ddp.measure_weak");
    return measureImpl(workload, base, world, measured_iterations,
                       /*weak=*/true);
}

std::vector<ScalingResult>
DdpTrainer::weakScalingCurve(Workload &workload,
                             const WorkloadConfig &base,
                             const std::vector<int> &world_sizes,
                             int measured_iterations)
{
    std::vector<ScalingResult> out;
    for (int w : world_sizes)
        out.push_back(measureWeak(workload, base, w, measured_iterations));
    ddp::setSpeedups(out, /*weak=*/true);
    return out;
}

std::vector<ScalingResult>
DdpTrainer::scalingCurve(Workload &workload, const WorkloadConfig &base,
                         const std::vector<int> &world_sizes,
                         int measured_iterations)
{
    std::vector<ScalingResult> out;
    for (int w : world_sizes)
        out.push_back(measure(workload, base, w, measured_iterations));
    ddp::setSpeedups(out, /*weak=*/false);
    return out;
}

FaultToleranceResult
DdpTrainer::runEngine(Workload &workload, const WorkloadConfig &base,
                      int world, const FaultInjector &injector,
                      const FaultRecoveryOptions &options,
                      bool with_checkpoints)
{
    GNN_SPAN("ddp.run_engine");
    GNN_ASSERT(world >= 1, "world size must be >= 1");
    GNN_ASSERT(options.iterations >= 1, "need at least one iteration");
    GNN_ASSERT(options.checkpointInterval >= 0,
               "checkpoint interval must be >= 0");

    FaultToleranceResult out;
    out.workload = workload.name();
    out.worldStart = world;
    out.targetIterations = options.iterations;

    WorkloadConfig cfg = base;
    cfg.worldSize = world;

    // Both the ideal and the faulty pass seed the device identically,
    // so idealTimeSec and totalTimeSec share the same compute model.
    GpuDevice device(GpuConfig::v100(), base.seed + 1000 + world);
    if (extraObserver_ != nullptr)
        device.addObserver(extraObserver_);
    workload.setup(cfg);
    ContextGuard guard(&device);

    const std::vector<FaultEvent> &events = injector.plan().events();
    std::vector<char> consumed(events.size(), 0);
    std::map<size_t, size_t> record_of_event;

    std::vector<char> alive(static_cast<size_t>(world), 1);
    int alive_count = world;
    double sim_time = 0;

    auto activeAt = [](const FaultEvent &e, double t) {
        if (t < e.timeSec)
            return false;
        return e.durationSec <= 0 || t < e.timeSec + e.durationSec;
    };
    auto recordFor = [&](size_t idx) -> FaultRecord & {
        auto it = record_of_event.find(idx);
        if (it == record_of_event.end()) {
            FaultRecord rec;
            rec.kind = events[idx].kind;
            rec.simTimeSec = sim_time;
            rec.replica = events[idx].replica;
            rec.worldBefore = alive_count;
            rec.worldAfter = alive_count;
            out.events.push_back(rec);
            it = record_of_event
                     .emplace(idx, out.events.size() - 1)
                     .first;
        }
        return out.events[it->second];
    };

    const bool can_restore =
        with_checkpoints && workload.supportsCheckpoint();
    Checkpoint ckpt;
    bool have_ckpt = false;
    if (can_restore) {
        // Step-0 image: a crash before the first periodic checkpoint
        // rolls back to the exact initial state. Captured before the
        // simulated clock starts, so it costs nothing.
        ckpt = captureCheckpoint(workload, 0);
        have_ckpt = true;
    }
    auto ckptIoSec = [&]() {
        return ckpt.sizeBytes() / kCheckpointBandwidth +
               kCheckpointLatencySec;
    };

    int completed = 0;
    while (completed < options.iterations && alive_count > 0) {
        const double t0 = sim_time;

        const double wall_before = device.wallTimeSec();
        const double xfer_before = device.transferTimeSec();
        workload.trainIteration();
        const double compute = device.wallTimeSec() - wall_before;
        const double transfer =
            device.transferTimeSec() - xfer_before;
        ++out.executedIterations;

        // The iteration finishes when the slowest alive replica does.
        double strag_factor = 1.0;
        size_t strag_event = events.size();
        for (size_t i = 0; i < events.size(); ++i) {
            const FaultEvent &e = events[i];
            if (e.kind != FaultKind::Straggler || !activeAt(e, t0))
                continue;
            if (e.replica < 0 || e.replica >= world ||
                !alive[static_cast<size_t>(e.replica)]) {
                continue;
            }
            if (e.magnitude > strag_factor) {
                strag_factor = e.magnitude;
                strag_event = i;
            }
        }
        const double iter_compute = compute * strag_factor;
        if (strag_event != events.size()) {
            FaultRecord &rec = recordFor(strag_event);
            rec.slowdownSec += compute * (strag_factor - 1.0);
        }

        // Gradient sync, with any active link degradation applied.
        double comm = 0;
        if (alive_count > 1) {
            const double bytes = workload.parameterBytes();
            double healthy =
                ddp::syncCommCost(interconnect_, bytes, alive_count);
            comm = healthy;
            const double link = injector.linkFactor(t0);
            if (link < 1.0) {
                Interconnect slow(InterconnectConfig{link});
                comm = ddp::syncCommCost(slow, bytes, alive_count);
                for (size_t i = 0; i < events.size(); ++i) {
                    const FaultEvent &e = events[i];
                    if (e.kind == FaultKind::DegradedLink &&
                        activeAt(e, t0) && e.magnitude <= link) {
                        recordFor(i).slowdownSec += comm - healthy;
                        break;
                    }
                }
            }
            if (!workload.samplerDdpCompatible()) {
                // Replicated batches serialise their host copies.
                comm += transfer * (alive_count - 1);
            }
        }

        sim_time += iter_compute + comm;

        // Transient kernel failures due by now (a failure that lands
        // in a checkpoint/recovery gap surfaces in the next
        // iteration): detected on the device, the iteration is
        // recomputed.
        for (size_t i = 0; i < events.size(); ++i) {
            const FaultEvent &e = events[i];
            if (e.kind != FaultKind::TransientKernel || consumed[i])
                continue;
            if (e.timeSec <= sim_time) {
                consumed[i] = 1;
                FaultRecord &rec = recordFor(i);
                rec.detectionSec += kTransientDetectSec;
                rec.rollbackSec += iter_compute;
                out.recoveryTimeSec +=
                    kTransientDetectSec + iter_compute;
                sim_time += kTransientDetectSec + iter_compute;
            }
        }

        // Earliest unhandled crash of a live replica: the all-reduce
        // times out, is retried with exponential backoff, then the
        // world shrinks and training rolls back to the last durable
        // checkpoint. One incident per loop pass; detection requires a
        // peer, so a sole survivor cannot observe further crashes.
        size_t crash = events.size();
        if (alive_count > 1) {
            for (size_t i = 0; i < events.size(); ++i) {
                const FaultEvent &e = events[i];
                if (e.kind != FaultKind::ReplicaCrash || consumed[i] ||
                    e.timeSec > sim_time) {
                    continue;
                }
                consumed[i] = 1;
                if (e.replica < 0 || e.replica >= world ||
                    !alive[static_cast<size_t>(e.replica)]) {
                    continue; // stale target: nothing to recover
                }
                crash = i;
                break;
            }
        }
        if (crash == events.size()) {
            ++completed;
            if (with_checkpoints && workload.supportsCheckpoint() &&
                options.checkpointInterval > 0 &&
                completed % options.checkpointInterval == 0 &&
                completed < options.iterations) {
                ckpt = captureCheckpoint(
                    workload, static_cast<uint64_t>(completed));
                have_ckpt = true;
                const double io = ckptIoSec();
                out.checkpointTimeSec += io;
                sim_time += io;
            }
            continue;
        }

        // The in-flight iteration never syncs; it is not counted.
        const FaultEvent &e = events[crash];
        FaultRecord &rec = recordFor(crash);

        double detection = kAllReduceTimeoutSec;
        double backoff = kRetryBackoffBaseSec;
        for (int r = 0; r < kMaxRetries; ++r) {
            detection += backoff + kAllReduceTimeoutSec;
            backoff *= 2;
        }

        alive[static_cast<size_t>(e.replica)] = 0;
        --alive_count;
        rec.worldBefore = alive_count + 1;
        rec.worldAfter = alive_count;
        rec.simTimeSec = sim_time;
        rec.detectionSec += detection;

        const int rollback_to =
            have_ckpt ? static_cast<int>(ckpt.step) : 0;
        rec.lostIterations = completed - rollback_to;
        out.replayedIterations += rec.lostIterations;

        double rollback = 0;
        double reshard = 0;
        if (alive_count > 0) {
            // Survivors re-shard the batch over the shrunken world and
            // reload parameters from stable storage.
            cfg.worldSize = alive_count;
            workload.setup(cfg);
            if (have_ckpt) {
                rollback = ckptIoSec();
                restoreCheckpoint(workload, ckpt);
            }
            completed = rollback_to;
            reshard = kCommReinitSec;
            if (alive_count > 1) {
                reshard += interconnect_.broadcastTime(
                    workload.parameterBytes(), alive_count);
            }
        }
        rec.rollbackSec += rollback;
        rec.reshardSec += reshard;
        const double overhead = detection + rollback + reshard;
        out.recoveryTimeSec += overhead;
        sim_time += overhead;
    }

    if (alive_count == 0) {
        warn("fault plan killed every replica; run stopped after %d "
             "of %d iterations",
             completed, options.iterations);
    }

    out.totalTimeSec = sim_time;
    out.worldEnd = alive_count;
    return out;
}

FaultToleranceResult
DdpTrainer::runWithFaults(Workload &workload, const WorkloadConfig &base,
                          int world, const FaultPlan &plan,
                          const FaultRecoveryOptions &options)
{
    // Fault-free, checkpoint-free pass first: same device seed and
    // initial workload state, so the two clocks are comparable.
    const FaultToleranceResult ideal = runEngine(
        workload, base, world, FaultInjector{}, options, false);
    FaultToleranceResult res = runEngine(workload, base, world,
                                         FaultInjector(plan), options, true);
    res.idealTimeSec = ideal.totalTimeSec;
    res.goodput = res.totalTimeSec > 0
                      ? ideal.totalTimeSec / res.totalTimeSec
                      : 0;
    return res;
}

} // namespace gnnmark
