/**
 * @file
 * The serving simulator: a discrete-event loop over simulated time
 * that feeds an open-loop arrival schedule through admission control,
 * a deadline-aware dynamic batcher, and a pool of replicas whose
 * batch costs come from a priced BatchCostTable and whose health is
 * governed by a FaultInjector.
 *
 * Structure (one event queue, ordered by (time, seq) so ties resolve
 * deterministically):
 *
 *  - Admission: an arriving request is shed (or served degraded from
 *    the embedding cache) when its deadline is already infeasible
 *    given the queue depth; otherwise it joins a central FIFO queue.
 *  - Batching: a batch forms when a replica is free, closing either
 *    at maxBatch or when the head request's deadline slack forces
 *    dispatch (head.deadline - cost - kBatchSlackFactor*cost).
 *  - Replicas: each runs one batch at a time; service time is the
 *    table cost scaled by the injector's serviceFactor at dispatch.
 *    A crash before the scheduled end means the batch never
 *    completes and only its timeout fires.
 *  - Timeouts/retries: a batch times out after kTimeoutFactor * its
 *    expected cost; its requests retry with capped exponential
 *    backoff while attempts and deadline slack remain, then degrade
 *    (cache fallback) or are lost.
 *  - Hedging: a batch still running at kHedgeFactor * expected cost
 *    gets a duplicate on a free replica; first completion wins and
 *    the loser's work is accounted as cancelled, never as a second
 *    answer.
 *  - Breakers: per-replica circuit breakers open on consecutive
 *    timeouts and re-admit probes after a cooldown.
 *
 * Everything is driven by simulated time and seeded randomness, so
 * the resulting ServingReport is byte-stable across processes.
 */

#ifndef GNNMARK_SERVE_SERVER_HH
#define GNNMARK_SERVE_SERVER_HH

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <queue>
#include <string>
#include <vector>

#include "obs/request_trace.hh"
#include "obs/window.hh"
#include "serve/cache.hh"
#include "serve/cost_model.hh"
#include "serve/policies.hh"
#include "serve/report.hh"
#include "serve/request.hh"
#include "serve/traffic.hh"
#include "sim/fault_injector.hh"

namespace gnnmark {
namespace serve {

/**
 * Forced-dispatch slack, as a fraction of the batch cost: the batcher
 * holds a partial batch until
 * head.deadline - cost - kBatchSlackFactor * cost.
 */
inline constexpr double kBatchSlackFactor = 0.5;
/** Batch timeout = kTimeoutFactor * expected batch cost. */
inline constexpr double kTimeoutFactor = 4.0;
/** Hedge a batch still running after kHedgeFactor * expected. */
inline constexpr double kHedgeFactor = 2.0;
static_assert(kHedgeFactor > 0 && kHedgeFactor < kTimeoutFactor,
              "a hedge must launch before its primary times out");
/** Fallback embedding cache entries. */
inline constexpr size_t kCacheCapacity = 256;

/** Full configuration of one serving run. */
struct ServeOptions
{
    TrafficConfig traffic;
    int replicas = 4;
    int maxBatch = 16;

    /** @{ Robustness ablation switches. */
    bool hedgeEnabled = true;
    bool shedEnabled = true;
    bool fallbackEnabled = true;
    bool breakerEnabled = true;
    /** @} */

    /** Fault schedule (empty plan = healthy run). */
    FaultPlan faults;
    /** Scenario label echoed into the report. */
    std::string faultScenario = "none";

    /**
     * Tumbling-window width for the timeline sections of the report
     * (latency/goodput/queue-depth series + burn-rate alerts).
     * 0 disables windowing entirely and the report stays byte-
     * identical to a pre-windowing run.
     */
    double windowSec = 0;
    /** SLO availability target for burn-rate alerting. */
    double sloTarget = 0.99;
    /**
     * Trace every Nth request's span chain (0 disables tracing).
     * Shed, timed-out and hedge-won requests are always kept as
     * exemplars when tracing is on.
     */
    int64_t traceSampleEvery = 0;
};

/**
 * Built-in serving fault scenarios, scaled to the arrival horizon
 * `duration`. "straggler" slows one replica 6x for most of the run,
 * "crash" kills the last replica at 30%, "mixed" layers both plus a
 * second, shorter straggler window — the overload story the
 * robustness ablations are judged against. Any other name ("none")
 * is a healthy run.
 */
FaultPlan scenarioPlan(const std::string &scenario, int replicas,
                       double duration);

/** Runs one serving simulation; see the file doc for the model. */
class ServingSimulator
{
  public:
    ServingSimulator(BatchCostTable table, ServeOptions options);

    /** Execute the full event loop and aggregate the report. */
    ServingReport run();

    /**
     * Retained request traces (run() must have completed), ascending
     * by request id — feed them to ChromeTraceWriter::addRequestLanes.
     * Empty when traceSampleEvery == 0.
     */
    std::vector<obs::RequestTrace> drainRequestTraces();

  private:
    enum class EvType : uint8_t
    {
        Arrival,      ///< a = request id
        Retry,        ///< a = request id
        BatchDone,    ///< a = batch id
        BatchTimeout, ///< a = batch id
        HedgeCheck,   ///< a = batch id (the primary)
        Dispatch,     ///< forced-dispatch / breaker-probe check
    };

    struct Ev
    {
        double t = 0;
        int64_t seq = 0;
        EvType type = EvType::Dispatch;
        int64_t a = 0;

        bool
        operator>(const Ev &o) const
        {
            if (t != o.t)
                return t > o.t;
            return seq > o.seq;
        }
    };

    /** One dispatched batch (primary or hedge duplicate). */
    struct Batch
    {
        int64_t id = 0;
        int64_t group = 0;
        int replica = 0;
        bool isHedge = false;
        bool resolved = false;
        double dispatchSec = 0;
        /** Expected (table) cost for this batch size. */
        double expectedSec = 0;
        /** Scheduled completion (+inf if a crash kills it). */
        double doneSec = 0;
    };

    /** A request set in flight: one primary, at most one hedge. */
    struct Group
    {
        int64_t primary = -1;
        int64_t hedge = -1;
        bool answered = false;
        std::vector<int64_t> requests;
    };

    struct ReqState
    {
        bool resolved = false;
        Outcome outcome = Outcome::Lost;
        double doneSec = 0;
        /** When the request last joined the central queue. */
        double enqueueSec = 0;
    };

    struct Replica
    {
        bool busy = false;
        /** Batch currently running here (-1 when idle). */
        int64_t activeBatch = -1;
        CircuitBreaker breaker;
        ReplicaReport stats;
    };

    void push(double t, EvType type, int64_t a);
    void resolve(int64_t req, Outcome outcome, double now);
    /** Post-timeout path: retry if possible, else degrade. */
    void retryOrDegrade(int64_t req, double now);
    /** Cache fallback (hit) or the given miss outcome. */
    void degrade(int64_t req, Outcome onMiss, double now);
    void admit(int64_t req, double now);
    void tryDispatch(double now);
    int64_t launchBatch(const std::vector<int64_t> &reqs, int replica,
                        int64_t group, bool hedge, double now);
    void cancelBatch(Batch &batch, double now);
    void onBatchDone(int64_t id, double now);
    void onBatchTimeout(int64_t id, double now);
    void onHedgeCheck(int64_t id, double now);
    bool replicaAvailable(int r, double now);

    ServingReport buildReport();
    void buildTimeline(ServingReport &rep);

    BatchCostTable table_;
    ServeOptions opt_;
    FaultInjector injector_;

    std::vector<Request> requests_;
    std::vector<ReqState> states_;
    std::vector<Replica> replicas_;
    std::vector<Batch> batches_;
    std::vector<Group> groups_;
    EmbeddingCache cache_;

    std::priority_queue<Ev, std::vector<Ev>, std::greater<Ev>> events_;
    int64_t seq_ = 0;
    std::deque<int64_t> queue_;

    /** @{ Aggregates gathered during the run. */
    std::vector<double> latenciesMs_;
    int64_t full_ = 0, fallbackCount_ = 0, shed_ = 0, lost_ = 0;
    int64_t sloMet_ = 0, retries_ = 0, hedges_ = 0, hedgeWins_ = 0;
    int64_t timeouts_ = 0, dispatched_ = 0;
    int64_t batchSizeSum_ = 0;
    double horizon_ = 0;
    /** @} */

    /** @{ Windowed observability (null when windowSec == 0). */
    std::unique_ptr<obs::WindowedSeries> latencyWin_; ///< resolve time, ms
    std::unique_ptr<obs::WindowedSeries> queueWin_;   ///< arrival depth
    /** Outcome counts by arrival window; only those fields are set. */
    std::map<int64_t, ServingWindow> winCounts_;
    /** @} */

    /** Request-scoped tracer (null when traceSampleEvery == 0). */
    std::unique_ptr<obs::RequestTracer> tracer_;
};

} // namespace serve
} // namespace gnnmark

#endif // GNNMARK_SERVE_SERVER_HH
