/**
 * @file
 * Simulated PyTorch DistributedDataParallel training over N GPUs, for
 * the paper's strong-scaling study (Fig. 9). Per iteration each
 * replica computes on its shard of the global batch; gradients are
 * bucketed and ring-all-reduced over NVLink. Workloads whose sampler
 * is not DDP-aware (PinSAGE) replicate the full batch on every
 * replica and pay host-link contention for the duplicated input
 * transfers — reproducing the degradation the paper observes.
 */

#ifndef GNNMARK_MULTIGPU_DDP_HH
#define GNNMARK_MULTIGPU_DDP_HH

#include <string>
#include <vector>

#include "models/workload.hh"
#include "sim/fault_injector.hh"
#include "sim/interconnect.hh"
#include "sim/stream.hh"

namespace gnnmark {

class KernelObserver;

/** One point of the strong-scaling curve. */
struct ScalingResult
{
    int worldSize = 1;
    double epochTimeSec = 0;   ///< average simulated time per epoch
    double computeTimeSec = 0; ///< per-epoch on-GPU compute share
    double commTimeSec = 0;    ///< per-epoch all-reduce + replication
    /**
     * Per-epoch communication *not* hidden behind backward compute.
     * Equals commTimeSec under the synchronous model;
     * epochTimeSec = computeTimeSec + commExposedSec in both modes.
     */
    double commExposedSec = 0;
    /** 1 - exposed/total (0 when there is no communication). */
    double overlapFrac = 0;
    double speedup = 0; ///< vs. the 1-GPU epoch time
};

/** Communication-model knobs for DdpTrainer. */
struct DdpOptions
{
    /**
     * Overlap the bucketed gradient all-reduce with backward compute
     * on a dedicated comm stream (stream/event model). When false the
     * legacy fully-serialized cost model is reproduced bit-exactly.
     */
    bool overlapComm = true;
};

/**
 * Cost-model helpers shared by every DDP pricing path (measure,
 * measureWeak, the fault engine, tests). Single source of truth for
 * the bucketed-all-reduce formula — previously inlined three times.
 */
namespace ddp {

/** DDP gradient bucket size (PyTorch default 25 MB). */
constexpr double kBucketBytes = 25.0 * 1024 * 1024;

/** Fixed per-iteration DDP bookkeeping (hooks, bucket ready checks). */
constexpr double kDdpOverheadSec = 40e-6;

/**
 * @{ Overlap-path bucket sizing. At reproduction scale every
 * workload's gradients fit a single 25 MB PyTorch bucket, whose one
 * ready event would fire only when backward finishes — making overlap
 * vacuous — so the comm stream drains finer buckets: roughly
 * bytes/kTargetBuckets each, clamped to [kMinBucketBytes, 25 MB]. The
 * synchronous path is unaffected.
 */
constexpr int kTargetBuckets = 4;
constexpr double kMinBucketBytes = 16.0 * 1024;
/** @} */

/** Number of legacy 25 MB gradient buckets covering `bytes`. */
int bucketCount(double bytes);

/**
 * Per-iteration synchronous gradient-sync cost on `world` replicas:
 * ring all-reduce plus per-bucket launch latency plus fixed DDP
 * bookkeeping. 0 when world <= 1.
 */
double syncCommCost(const Interconnect &interconnect, double bytes,
                    int world);

/** Equal-split overlap-path bucket layout (see kTargetBuckets). */
std::vector<double> overlapBucketSizes(double bytes);

/** Total/exposed split of one overlapped iteration's gradient sync. */
struct CommCost
{
    double totalSec = 0;   ///< comm-stream occupancy + bookkeeping
    double exposedSec = 0; ///< share serialized after backward
};

/**
 * Price one iteration's gradient sync against its kernel timeline:
 * buckets become ready at backward-kernel completion points, a comm
 * stream drains them in order, and only
 * max(0, comm_finish - backward_finish) (plus the host-side
 * bookkeeping) extends the iteration. Invariants:
 * exposedSec <= totalSec, and with no backward window the cost
 * degenerates to fully exposed.
 */
CommCost overlapCommCost(const Interconnect &interconnect, double bytes,
                         int world, const IterationTimeline &timeline);

/**
 * Price one scaling point on `world` replicas from the measured
 * per-GPU work: the measured iterations' kernel `timelines`, their
 * mean H2D time and the epoch's compute time. Adds the replicated
 * input transfers of a sampler that is not DDP-aware, then the
 * overlapped gradient sync (overlapComm, with timelines) or the
 * synchronous one, both scaled to the epoch. `speedup` stays 0;
 * setSpeedups() fills it for a whole curve.
 */
ScalingResult pricePoint(const Interconnect &interconnect,
                         const std::vector<IterationTimeline> &timelines,
                         double iter_transfer_sec,
                         double epoch_compute_sec,
                         double iterations_per_epoch,
                         double parameter_bytes,
                         bool sampler_ddp_compatible, int world,
                         const DdpOptions &options);

/**
 * Set each point's `speedup` to t1/tw against the curve's 1-GPU
 * epoch time: the speedup under strong scaling, the efficiency under
 * `weak` scaling. Without a 1-GPU point the first point stands in,
 * as-is when weak (per-GPU work is constant) and times its GPU count
 * when strong (ideal linear scaling).
 */
void setSpeedups(std::vector<ScalingResult> &curve, bool weak);

/**
 * Price a scaling curve offline from recorded per-iteration kernel
 * timelines (e.g. a trace replay's ReplayResult::iterations): the
 * recorded stream is the fixed per-GPU work, so the curve has
 * weak-scaling semantics — compute stays `epoch_compute_sec` at every
 * world size, communication grows with `world`, and `speedup` carries
 * the weak-scaling efficiency t1/tw. With overlapComm the recorded
 * backward windows feed overlapCommCost(); otherwise the synchronous
 * model prices each point.
 */
std::vector<ScalingResult> scalingFromTimelines(
    const Interconnect &interconnect,
    const std::vector<IterationTimeline> &timelines,
    double epoch_compute_sec, double iterations_per_epoch,
    double parameter_bytes, bool sampler_ddp_compatible,
    const std::vector<int> &world_sizes, const DdpOptions &options);

} // namespace ddp

/** Knobs for a fault-tolerant DDP training run. */
struct FaultRecoveryOptions
{
    /** Training iterations the run must complete. */
    int iterations = 48;
    /**
     * Iterations between durable checkpoints; 0 disables periodic
     * checkpoints, in which case a crash rolls back to iteration 0.
     */
    int checkpointInterval = 12;
};

/** @{ Recovery costs of a fault-tolerant DDP run. */
/** All-reduce timeout that flags a dead/stuck replica. */
constexpr double kAllReduceTimeoutSec = 30e-3;
/** Failed-all-reduce retries before the world is shrunk. */
constexpr int kMaxRetries = 2;
/** First retry backoff; doubles per retry (exponential). */
constexpr double kRetryBackoffBaseSec = 10e-3;
/** Bandwidth to stable checkpoint storage. */
constexpr double kCheckpointBandwidth = 4e9;
/** Fixed per-checkpoint-write (and read) latency. */
constexpr double kCheckpointLatencySec = 1e-3;
/** Process-group re-initialisation cost after a world change. */
constexpr double kCommReinitSec = 200e-3;
/** @} */

/** Simulated-time accounting for one recovered fault. */
struct FaultRecord
{
    FaultKind kind = FaultKind::ReplicaCrash;
    /** Simulated time at which the run noticed the fault. */
    double simTimeSec = 0;
    int replica = 0;
    /** @{ Overhead breakdown, in simulated seconds. */
    double detectionSec = 0; ///< timeout + retry backoff
    double rollbackSec = 0;  ///< checkpoint read / retried compute
    double reshardSec = 0;   ///< re-init + re-broadcast + re-shard
    double slowdownSec = 0;  ///< straggler/degraded-link drag
    /** @} */
    /** Iterations discarded by the rollback (replayed afterwards). */
    int lostIterations = 0;
    int worldBefore = 0;
    int worldAfter = 0;
};

/** Outcome of a fault-injected training run (one per workload). */
struct FaultToleranceResult
{
    std::string workload;
    int worldStart = 0;
    int worldEnd = 0; ///< surviving replicas at completion
    int targetIterations = 0;
    /** Iterations actually computed, including replays. */
    int executedIterations = 0;
    /** Of those, iterations re-run after a rollback. */
    int replayedIterations = 0;
    /** Fault-free, checkpoint-free time for the same work. */
    double idealTimeSec = 0;
    /** Simulated wall time of the faulty run. */
    double totalTimeSec = 0;
    double checkpointTimeSec = 0; ///< spent writing checkpoints
    double recoveryTimeSec = 0;   ///< detection + rollback + re-shard
    /** idealTimeSec / totalTimeSec; 1.0 = no overhead. */
    double goodput = 0;
    std::vector<FaultRecord> events;
};

/** Strong-scaling measurement harness. */
class DdpTrainer
{
  public:
    /** Trains on simulated V100s over a healthy NVLink ring. */
    explicit DdpTrainer(DdpOptions options = DdpOptions{});

    /**
     * Measure average time-per-epoch for `workload` on `world` GPUs.
     * A fresh device and workload state are used per call.
     *
     * @param measured_iterations training steps to time (extrapolated
     *        to the epoch length).
     */
    ScalingResult measure(Workload &workload, const WorkloadConfig &base,
                          int world, int measured_iterations = 4);

    /** Full curve over the given world sizes, with speedups. */
    std::vector<ScalingResult>
    scalingCurve(Workload &workload, const WorkloadConfig &base,
                 const std::vector<int> &world_sizes,
                 int measured_iterations = 4);

    /**
     * Weak scaling (the paper's Sec. VII future-work item): the
     * per-GPU batch stays constant while the world grows, so the
     * global batch scales with the GPU count. The reported `speedup`
     * field carries the weak-scaling *efficiency* t1/tw (1.0 =
     * perfect).
     */
    ScalingResult measureWeak(Workload &workload,
                              const WorkloadConfig &base, int world,
                              int measured_iterations = 4);

    /** Weak-scaling curve over the given world sizes. */
    std::vector<ScalingResult>
    weakScalingCurve(Workload &workload, const WorkloadConfig &base,
                     const std::vector<int> &world_sizes,
                     int measured_iterations = 4);

    /**
     * Train `workload` on `world` replicas under an injected fault
     * plan, recovering elastically: an all-reduce that times out on a
     * crashed replica is retried with exponential backoff, then the
     * world shrinks to the survivors, the global batch is re-sharded,
     * and training rolls back to the last durable checkpoint. Each
     * recovery's detection / rollback / re-shard overheads are
     * itemised in simulated seconds. Deterministic: the same seed and
     * plan produce an identical result.
     *
     * The fault-free, checkpoint-free baseline (idealTimeSec) is
     * measured internally on a fresh workload state, so goodput is
     * directly comparable.
     */
    FaultToleranceResult
    runWithFaults(Workload &workload, const WorkloadConfig &base,
                  int world, const FaultPlan &plan,
                  const FaultRecoveryOptions &options =
                      FaultRecoveryOptions{});

    /**
     * Attach an extra observer (e.g. a ChromeTraceWriter) to every
     * device this trainer creates, so rank-0's kernel stream is
     * captured alongside the scaling/fault measurements. Not owned;
     * must outlive the trainer's measurement calls.
     */
    void setExtraObserver(KernelObserver *observer)
    {
        extraObserver_ = observer;
    }

  private:
    /**
     * One engine pass under `injector`: every field of the result
     * except idealTimeSec and goodput, which runWithFaults() fills
     * from a second, fault-free pass.
     */
    FaultToleranceResult runEngine(Workload &workload,
                                   const WorkloadConfig &base, int world,
                                   const FaultInjector &injector,
                                   const FaultRecoveryOptions &options,
                                   bool with_checkpoints);

    /** Shared body of measure()/measureWeak(); see their docs. */
    ScalingResult measureImpl(Workload &workload,
                              const WorkloadConfig &base, int world,
                              int measured_iterations, bool weak);

    Interconnect interconnect_;
    DdpOptions options_;
    KernelObserver *extraObserver_ = nullptr;
};

} // namespace gnnmark

#endif // GNNMARK_MULTIGPU_DDP_HH
