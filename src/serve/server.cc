#include "serve/server.hh"

#include <algorithm>
#include <cmath>
#include <limits>

#include "base/logging.hh"
#include "obs/slo.hh"

namespace gnnmark {
namespace serve {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/** Nearest-rank percentile over a sorted sample (q in (0, 1]). */
double
percentile(const std::vector<double> &sorted, double q)
{
    if (sorted.empty())
        return 0;
    const size_t rank = static_cast<size_t>(
        std::ceil(q * static_cast<double>(sorted.size())));
    return sorted[std::min(sorted.size() - 1,
                           rank == 0 ? size_t{0} : rank - 1)];
}

} // namespace

FaultPlan
scenarioPlan(const std::string &scenario, int replicas, double duration)
{
    std::vector<FaultEvent> events;
    if (scenario == "straggler" || scenario == "mixed")
        events.push_back({.kind = FaultKind::Straggler,
                          .timeSec = 0.15 * duration,
                          .replica = replicas > 1 ? 1 : 0,
                          .durationSec = 0.70 * duration,
                          .magnitude = 6.0});
    if (scenario == "crash" || scenario == "mixed")
        events.push_back({.kind = FaultKind::ReplicaCrash,
                          .timeSec = 0.30 * duration,
                          .replica = replicas - 1});
    if (scenario == "mixed" && replicas > 2)
        events.push_back({.kind = FaultKind::Straggler,
                          .timeSec = 0.55 * duration,
                          .durationSec = 0.20 * duration,
                          .magnitude = 3.0});
    return FaultPlan(std::move(events));
}

ServingSimulator::ServingSimulator(BatchCostTable table,
                                   ServeOptions options)
    : table_(std::move(table)), opt_(std::move(options)),
      injector_(opt_.faults), cache_(kCacheCapacity)
{
    GNN_ASSERT(table_.valid(), "serving needs a priced cost table");
    GNN_ASSERT(opt_.replicas >= 1 && opt_.replicas <= kMaxReplicas,
               "serving needs 1 to %d replicas, got %d", kMaxReplicas,
               opt_.replicas);
    GNN_ASSERT(opt_.maxBatch >= 1 && opt_.maxBatch <= kMaxBatchSize,
               "serving needs maxBatch in [1, %d], got %d", kMaxBatchSize,
               opt_.maxBatch);
    replicas_.resize(opt_.replicas);
    for (int r = 0; r < opt_.replicas; ++r)
        replicas_[r].stats.replica = r;
    if (opt_.windowSec > 0) {
        latencyWin_ = std::make_unique<obs::WindowedSeries>(opt_.windowSec);
        queueWin_ = std::make_unique<obs::WindowedSeries>(opt_.windowSec);
    }
    if (opt_.traceSampleEvery > 0)
        tracer_ = std::make_unique<obs::RequestTracer>(opt_.traceSampleEvery);
}

void
ServingSimulator::push(double t, EvType type, int64_t a)
{
    events_.push(Ev{t, seq_++, type, a});
}

void
ServingSimulator::resolve(int64_t req, Outcome outcome, double now)
{
    ReqState &s = states_[req];
    GNN_ASSERT(!s.resolved, "request %lld resolved twice",
               static_cast<long long>(req));
    s.resolved = true;
    s.outcome = outcome;
    s.doneSec = now;
    horizon_ = std::max(horizon_, now);
    const bool metSlo =
        outcome == Outcome::Full && now <= requests_[req].deadlineSec;
    if (latencyWin_) {
        // Outcomes tally into the request's *arrival* window (each
        // request exactly once → per-window conservation holds);
        // latency lands in the *resolve* window, what a dashboard
        // tailing completions would plot.
        ServingWindow &wc =
            winCounts_[latencyWin_->windowOf(requests_[req].arrivalSec)];
        ++wc.offered;
        if (metSlo)
            ++wc.sloMet;
        switch (outcome) {
          case Outcome::Full:
            ++wc.full;
            break;
          case Outcome::Fallback:
            ++wc.fallback;
            break;
          case Outcome::Shed:
            ++wc.shed;
            break;
          case Outcome::Lost:
            ++wc.lost;
            break;
        }
        if (outcome == Outcome::Full || outcome == Outcome::Fallback) {
            latencyWin_->observe(
                now, (now - requests_[req].arrivalSec) * 1e3);
        }
    }
    if (tracer_) {
        if (outcome == Outcome::Shed || outcome == Outcome::Lost)
            tracer_->retain(req);
        tracer_->finish(req, outcomeName(outcome));
    }
    switch (outcome) {
      case Outcome::Full:
        ++full_;
        if (now <= requests_[req].deadlineSec)
            ++sloMet_;
        latenciesMs_.push_back((now - requests_[req].arrivalSec) * 1e3);
        if (opt_.fallbackEnabled)
            cache_.insert(requests_[req].item, 0.0f);
        break;
      case Outcome::Fallback:
        ++fallbackCount_;
        latenciesMs_.push_back((now - requests_[req].arrivalSec) * 1e3);
        break;
      case Outcome::Shed:
        ++shed_;
        break;
      case Outcome::Lost:
        ++lost_;
        break;
    }
}

void
ServingSimulator::degrade(int64_t req, Outcome onMiss, double now)
{
    if (opt_.fallbackEnabled &&
        cache_.lookup(requests_[req].item)) {
        resolve(req, Outcome::Fallback, now);
        return;
    }
    resolve(req, onMiss, now);
}

void
ServingSimulator::retryOrDegrade(int64_t req, double now)
{
    Request &r = requests_[req];
    if (canRetry(r.attempts)) {
        const double delay = backoffDelay(r.attempts);
        // Deadline-aware retry: once the deadline cannot be met even
        // by an instant dispatch after the backoff, retrying only
        // feeds the overload — degrade instead. With shedding off
        // (the naive baseline) retries run until attempts exhaust.
        const bool feasible =
            now + delay + table_.costSec(1) <= r.deadlineSec;
        if (feasible || !opt_.shedEnabled) {
            ++retries_;
            if (tracer_) {
                tracer_->addSpan(req, "backoff", now, now + delay,
                                 "attempt=" +
                                     std::to_string(r.attempts));
            }
            push(now + delay, EvType::Retry, req);
            return;
        }
    }
    degrade(req, Outcome::Lost, now);
}

void
ServingSimulator::admit(int64_t req, double now)
{
    const Request &r = requests_[req];
    if (opt_.shedEnabled) {
        // Deadline feasibility: outstanding work ahead of this
        // request — the residual of every in-flight batch (bounded
        // by its timeout, which is when the replica frees either
        // way) plus the queued batches including this request —
        // spread over replicas currently willing to take work.
        int healthy = 0;
        double backlog = 0;
        for (int i = 0; i < opt_.replicas; ++i) {
            if (injector_.crashed(i, now))
                continue;
            if (opt_.breakerEnabled &&
                !replicas_[i].breaker.allows(now))
                continue;
            ++healthy;
            if (replicas_[i].busy && replicas_[i].activeBatch >= 0) {
                const Batch &b = batches_[replicas_[i].activeBatch];
                const double end = std::min(
                    b.doneSec,
                    b.dispatchSec + kTimeoutFactor * b.expectedSec);
                backlog += std::max(0.0, end - now);
            }
        }
        const double queuedBatches = std::ceil(
            (static_cast<double>(queue_.size()) + 1.0) / opt_.maxBatch);
        const double finishEst =
            healthy == 0
                ? kInf
                : now + (backlog +
                         queuedBatches * table_.costSec(opt_.maxBatch)) /
                            healthy;
        if (finishEst > r.deadlineSec) {
            if (tracer_)
                tracer_->addMark(req, "admission_reject", now);
            degrade(req, Outcome::Shed, now);
            if (queueWin_)
                queueWin_->observe(
                    now, static_cast<double>(queue_.size()));
            return;
        }
    }
    states_[req].enqueueSec = now;
    if (tracer_)
        tracer_->addMark(req, "admit", now);
    queue_.push_back(req);
    tryDispatch(now);
    if (queueWin_)
        queueWin_->observe(now, static_cast<double>(queue_.size()));
}

bool
ServingSimulator::replicaAvailable(int r, double now)
{
    if (replicas_[r].busy || injector_.crashed(r, now))
        return false;
    return !opt_.breakerEnabled || replicas_[r].breaker.allows(now);
}

int64_t
ServingSimulator::launchBatch(const std::vector<int64_t> &reqs,
                              int replica, int64_t group, bool hedge,
                              double now)
{
    const int size = static_cast<int>(reqs.size());
    const double expected = table_.costSec(size);
    const double factor = injector_.serviceFactor(replica, now);
    GNN_ASSERT(!replicas_[replica].busy, "replica %d double-booked",
               replica);

    Batch b;
    b.id = static_cast<int64_t>(batches_.size());
    b.group = group;
    b.replica = replica;
    b.isHedge = hedge;
    b.dispatchSec = now;
    b.expectedSec = expected;
    // A crash during service kills the batch: it never completes and
    // only its timeout resolves it.
    const double service = expected * factor;
    const double crash = injector_.crashTime(replica);
    b.doneSec = (std::isinf(service) || now + service >= crash)
                    ? kInf
                    : now + service;
    replicas_[replica].busy = true;
    replicas_[replica].activeBatch = b.id;

    if (std::isfinite(b.doneSec))
        push(b.doneSec, EvType::BatchDone, b.id);
    push(now + kTimeoutFactor * expected, EvType::BatchTimeout, b.id);
    if (opt_.hedgeEnabled && !hedge)
        push(now + kHedgeFactor * expected, EvType::HedgeCheck, b.id);
    ++dispatched_;
    batchSizeSum_ += size;
    batches_.push_back(b);
    return b.id;
}

void
ServingSimulator::tryDispatch(double now)
{
    while (!queue_.empty()) {
        int freeReplica = -1;
        double earliestProbe = kInf;
        for (int r = 0; r < opt_.replicas; ++r) {
            if (replicaAvailable(r, now)) {
                freeReplica = r;
                break;
            }
            if (opt_.breakerEnabled && !replicas_[r].busy &&
                !injector_.crashed(r, now) &&
                replicas_[r].breaker.state(now) ==
                    CircuitBreaker::State::Open) {
                earliestProbe = std::min(
                    earliestProbe, replicas_[r].breaker.probeTime());
            }
        }
        if (freeReplica < 0) {
            // Idle replicas gated only by open breakers: re-check
            // when the earliest cooldown expires.
            if (std::isfinite(earliestProbe))
                push(earliestProbe, EvType::Dispatch, 0);
            return;
        }

        const int size = static_cast<int>(
            std::min<size_t>(queue_.size(), opt_.maxBatch));
        const double cost = table_.costSec(size);
        const Request &head = requests_[queue_.front()];
        const double forceAt = head.deadlineSec -
                               (1.0 + kBatchSlackFactor) * cost;
        if (size < opt_.maxBatch && now < forceAt) {
            // Hold for more arrivals; revisit at the forced time.
            push(forceAt, EvType::Dispatch, 0);
            return;
        }

        Group g;
        g.requests.reserve(size);
        for (int i = 0; i < size; ++i) {
            const int64_t req = queue_.front();
            if (tracer_) {
                tracer_->addSpan(req, "queue_wait",
                                 states_[req].enqueueSec, now);
            }
            g.requests.push_back(req);
            queue_.pop_front();
        }
        const int64_t gid = static_cast<int64_t>(groups_.size());
        for (int64_t req : g.requests)
            ++requests_[req].attempts;
        g.primary = launchBatch(g.requests, freeReplica, gid,
                                /*hedge=*/false, now);
        groups_.push_back(std::move(g));
    }
}

void
ServingSimulator::cancelBatch(Batch &batch, double now)
{
    GNN_ASSERT(!batch.resolved, "cancelling a resolved batch");
    batch.resolved = true;
    replicas_[batch.replica].busy = false;
    replicas_[batch.replica].activeBatch = -1;
    replicas_[batch.replica].stats.cancelledSec +=
        now - batch.dispatchSec;
    ++replicas_[batch.replica].stats.batchesCancelled;
    if (tracer_) {
        const std::string detail =
            "replica=" + std::to_string(batch.replica) +
            (batch.isHedge ? " hedge" : " primary");
        for (int64_t req : groups_[batch.group].requests)
            tracer_->addSpan(req, "cancelled", batch.dispatchSec, now,
                             detail);
    }
}

void
ServingSimulator::onBatchDone(int64_t id, double now)
{
    Batch &b = batches_[id];
    if (b.resolved)
        return; // cancelled or timed out first
    Group &g = groups_[b.group];
    GNN_ASSERT(!g.answered, "group answered twice");

    b.resolved = true;
    replicas_[b.replica].busy = false;
    replicas_[b.replica].activeBatch = -1;
    replicas_[b.replica].stats.busySec += now - b.dispatchSec;
    ++replicas_[b.replica].stats.batchesCompleted;
    if (opt_.breakerEnabled)
        replicas_[b.replica].breaker.onSuccess(now);

    g.answered = true;
    if (b.isHedge)
        ++hedgeWins_;

    if (tracer_) {
        const std::string detail =
            "replica=" + std::to_string(b.replica) +
            " batch=" + std::to_string(b.id) +
            (b.isHedge ? " hedge" : "");
        for (int64_t req : g.requests) {
            tracer_->addSpan(req, "infer", b.dispatchSec, now, detail);
            if (b.isHedge)
                tracer_->retain(req); // hedge-won exemplar
        }
    }

    // First completion wins: the sibling's in-flight work is
    // cancelled and never produces a second answer.
    const int64_t sibId = b.isHedge ? g.primary : g.hedge;
    if (sibId >= 0 && !batches_[sibId].resolved)
        cancelBatch(batches_[sibId], now);

    for (int64_t req : g.requests)
        resolve(req, Outcome::Full, now);
    tryDispatch(now);
}

void
ServingSimulator::onBatchTimeout(int64_t id, double now)
{
    Batch &b = batches_[id];
    if (b.resolved)
        return; // completed or cancelled first
    cancelBatch(b, now);
    ++timeouts_;
    ++replicas_[b.replica].stats.timeouts;
    if (opt_.breakerEnabled)
        replicas_[b.replica].breaker.onTimeout(now);
    if (tracer_) {
        const std::string detail =
            "replica=" + std::to_string(b.replica);
        for (int64_t req : groups_[b.group].requests) {
            tracer_->addMark(req, "timeout", now, detail);
            tracer_->retain(req); // timed-out exemplar
        }
    }

    Group &g = groups_[b.group];
    const int64_t sibId = b.isHedge ? g.primary : g.hedge;
    const bool siblingInFlight = sibId >= 0 && !batches_[sibId].resolved;
    if (!siblingInFlight && !g.answered) {
        for (int64_t req : g.requests) {
            if (!states_[req].resolved)
                retryOrDegrade(req, now);
        }
    }
    tryDispatch(now);
}

void
ServingSimulator::onHedgeCheck(int64_t id, double now)
{
    Batch &b = batches_[id];
    Group &g = groups_[b.group];
    if (b.resolved || g.answered || g.hedge >= 0)
        return;
    int freeReplica = -1;
    for (int r = 0; r < opt_.replicas; ++r) {
        if (replicaAvailable(r, now)) {
            freeReplica = r;
            break;
        }
    }
    if (freeReplica < 0) {
        // No spare capacity this instant — re-arm a short probe
        // rather than giving up; the batch's own resolution (done,
        // timeout or cancel) bounds the number of re-checks.
        push(now + 0.5 * b.expectedSec, EvType::HedgeCheck, id);
        return;
    }
    ++hedges_;
    if (tracer_) {
        const std::string detail =
            "replica=" + std::to_string(freeReplica);
        for (int64_t req : g.requests)
            tracer_->addMark(req, "hedge_launch", now, detail);
    }
    g.hedge = launchBatch(g.requests, freeReplica, b.group,
                          /*hedge=*/true, now);
}

ServingReport
ServingSimulator::run()
{
    requests_ = generateTraffic(opt_.traffic);
    states_.assign(requests_.size(), ReqState{});
    for (const Request &r : requests_)
        push(r.arrivalSec, EvType::Arrival, r.id);

    // Generous safety valve: every request is bounded by attempts *
    // (a handful of events per dispatch), so a loop beyond this is a
    // scheduling bug, not a heavy run.
    const int64_t maxEvents =
        2048 + 64 * static_cast<int64_t>(requests_.size());
    int64_t processed = 0;
    while (!events_.empty()) {
        GNN_ASSERT(++processed <= maxEvents,
                   "serving event loop failed to converge");
        const Ev ev = events_.top();
        events_.pop();
        switch (ev.type) {
          case EvType::Arrival:
            if (tracer_)
                tracer_->addMark(ev.a, "arrival", ev.t);
            admit(ev.a, ev.t);
            break;
          case EvType::Retry:
            if (!states_[ev.a].resolved) {
                if (tracer_)
                    tracer_->addMark(ev.a, "retry_admit", ev.t);
                admit(ev.a, ev.t);
            }
            break;
          case EvType::BatchDone:
            onBatchDone(ev.a, ev.t);
            break;
          case EvType::BatchTimeout:
            onBatchTimeout(ev.a, ev.t);
            break;
          case EvType::HedgeCheck:
            onHedgeCheck(ev.a, ev.t);
            break;
          case EvType::Dispatch:
            tryDispatch(ev.t);
            break;
        }
    }

    // Anything still queued has no replica left to run it (e.g. the
    // whole pool crashed): degrade or lose it at the horizon.
    for (int64_t req : queue_) {
        if (!states_[req].resolved)
            degrade(req, Outcome::Lost, horizon_);
    }
    queue_.clear();
    for (size_t i = 0; i < states_.size(); ++i) {
        GNN_ASSERT(states_[i].resolved,
                   "request %zu never resolved", i);
    }

    return buildReport();
}

ServingReport
ServingSimulator::buildReport()
{
    ServingReport rep;
    rep.arrival = arrivalProcessName(opt_.traffic.process);
    rep.faultScenario = opt_.faultScenario;
    rep.ratePerSec = opt_.traffic.ratePerSec;
    rep.durationSec = opt_.traffic.durationSec;
    rep.sloMs = opt_.traffic.sloSec * 1e3;
    rep.replicas = opt_.replicas;
    rep.maxBatch = opt_.maxBatch;
    rep.seed = opt_.traffic.seed;
    rep.hedgeEnabled = opt_.hedgeEnabled;
    rep.shedEnabled = opt_.shedEnabled;
    rep.fallbackEnabled = opt_.fallbackEnabled;

    rep.offered = static_cast<int64_t>(requests_.size());
    rep.full = full_;
    rep.fallback = fallbackCount_;
    rep.shed = shed_;
    rep.lost = lost_;
    GNN_ASSERT(rep.full + rep.fallback + rep.shed + rep.lost ==
                   rep.offered,
               "request conservation violated");

    rep.sloMet = sloMet_;
    rep.goodputPerSec =
        opt_.traffic.durationSec > 0
            ? static_cast<double>(sloMet_) / opt_.traffic.durationSec
            : 0;

    std::vector<double> sorted = latenciesMs_;
    std::sort(sorted.begin(), sorted.end());
    rep.p50Ms = percentile(sorted, 0.50);
    rep.p95Ms = percentile(sorted, 0.95);
    rep.p99Ms = percentile(sorted, 0.99);
    if (!sorted.empty()) {
        double sum = 0;
        for (double v : sorted)
            sum += v;
        rep.meanMs = sum / static_cast<double>(sorted.size());
        rep.maxMs = sorted.back();
    }

    rep.retries = retries_;
    rep.hedgesLaunched = hedges_;
    rep.hedgeWins = hedgeWins_;
    rep.timeouts = timeouts_;
    rep.cacheHitRate = cache_.hitRate();
    rep.cacheHits = cache_.hits();
    rep.cacheMisses = cache_.misses();

    rep.batches = dispatched_;
    rep.meanBatchSize =
        dispatched_ > 0
            ? static_cast<double>(batchSizeSum_) / dispatched_
            : 0;
    rep.horizonSec = horizon_;

    for (Replica &r : replicas_) {
        r.stats.breakerOpens = r.breaker.openCount();
        r.stats.breakerFinal =
            opt_.breakerEnabled
                ? breakerStateName(r.breaker.state(horizon_))
                : "closed";
        rep.breakerOpens += r.stats.breakerOpens;
        rep.busySec += r.stats.busySec;
        rep.cancelledSec += r.stats.cancelledSec;
        rep.perReplica.push_back(r.stats);
    }
    rep.utilization =
        horizon_ > 0 ? (rep.busySec + rep.cancelledSec) /
                           (horizon_ * opt_.replicas)
                     : 0;

    buildTimeline(rep);
    if (tracer_) {
        rep.traceSampleEvery = tracer_->sampleEvery();
        rep.tracedRequests = tracer_->tracedCount();
    }
    return rep;
}

void
ServingSimulator::buildTimeline(ServingReport &rep)
{
    if (!latencyWin_)
        return;
    rep.windowSec = opt_.windowSec;
    rep.sloTarget = opt_.sloTarget;

    // Cover the configured duration even if the run went quiet early,
    // and the full tail if resolutions ran past it.
    const double hor = std::max(horizon_, opt_.traffic.durationSec);
    const std::vector<obs::WindowStats> lat = latencyWin_->series(hor);
    const std::vector<obs::WindowStats> qd = queueWin_->series(hor);
    GNN_ASSERT(lat.size() == qd.size(),
               "timeline series disagree on window count");

    obs::BurnRateMonitor monitor(opt_.sloTarget, opt_.windowSec);
    rep.windows.reserve(lat.size());
    for (size_t i = 0; i < lat.size(); ++i) {
        auto it = winCounts_.find(lat[i].index);
        ServingWindow w =
            it != winCounts_.end() ? it->second : ServingWindow{};
        w.index = lat[i].index;
        w.startSec = lat[i].startSec;
        w.endSec = lat[i].endSec;
        w.resolved = lat[i].count;
        w.p50Ms = lat[i].p50;
        w.p95Ms = lat[i].p95;
        w.p99Ms = lat[i].p99;
        w.goodputPerSec = static_cast<double>(w.sloMet) / opt_.windowSec;
        w.queueDepthMean = qd[i].mean();
        w.queueDepthMax = qd[i].maxValue;

        monitor.addWindow(w.sloMet, w.offered);
        const obs::BurnPoint &p = monitor.points().back();
        w.burnRate = p.burnRate;
        w.budgetConsumed = p.budgetConsumed;
        rep.windows.push_back(w);
    }
    monitor.finish();
    rep.budgetConsumed = monitor.budgetConsumed();
    rep.alerts = monitor.alerts();
}

std::vector<obs::RequestTrace>
ServingSimulator::drainRequestTraces()
{
    if (!tracer_)
        return {};
    return tracer_->drain();
}

} // namespace serve
} // namespace gnnmark
