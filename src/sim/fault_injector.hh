/**
 * @file
 * Deterministic fault injection against simulated time.
 *
 * A FaultPlan is an explicit list of fault events — replica crashes,
 * straggler slowdowns, degraded interconnect links, transient kernel
 * failures — each pinned to a simulated timestamp. Plans are written
 * out as event lists or loaded from fault_plan_io.hh's text format.
 * The FaultInjector answers stateless queries about the fault
 * environment at a given simulated time, so a training harness that
 * advances a simulated clock sees exactly the same failures on every
 * run with the same plan.
 */

#ifndef GNNMARK_SIM_FAULT_INJECTOR_HH
#define GNNMARK_SIM_FAULT_INJECTOR_HH

#include <cstdint>
#include <limits>
#include <vector>

namespace gnnmark {

/** The fault kinds the injector models. */
enum class FaultKind : uint8_t
{
    ReplicaCrash,    ///< a replica stops responding permanently
    Straggler,       ///< a replica computes slower for a while
    DegradedLink,    ///< one ring hop loses bandwidth for a while
    TransientKernel, ///< one kernel/iteration fails and is retried
};

/** Human-readable fault kind, e.g. "crash". */
const char *faultKindName(FaultKind kind);

/** One scheduled fault. */
struct FaultEvent
{
    FaultKind kind = FaultKind::ReplicaCrash;
    /** Simulated time at which the fault begins. */
    double timeSec = 0;
    /** Target replica (crash/straggler; ignored for link faults). */
    int replica = 0;
    /** How long the fault lasts; 0 means permanent. */
    double durationSec = 0;
    /**
     * Fault severity: straggler compute-time multiplier (> 1), or
     * remaining bandwidth fraction of the degraded hop (in (0, 1]).
     * Unused for crashes and transient kernel failures.
     */
    double magnitude = 1.0;
};

/** An ordered fault schedule. */
class FaultPlan
{
  public:
    FaultPlan() = default;

    /** Explicit event list (sorted by time on construction). */
    explicit FaultPlan(std::vector<FaultEvent> events);

    const std::vector<FaultEvent> &events() const { return events_; }
    bool empty() const { return events_.empty(); }

  private:
    std::vector<FaultEvent> events_; ///< sorted by timeSec
};

/**
 * Read-only oracle over a FaultPlan, queried by simulated time.
 *
 * Precedence for overlapping same-replica faults: a crash dominates a
 * straggler. Once crashed(replica, t) is true the replica performs no
 * work at all, so any straggler window covering the same replica and
 * time is moot; serviceFactor() encodes exactly this contract and is
 * what harnesses that price per-replica work should query.
 */
class FaultInjector
{
  public:
    explicit FaultInjector(FaultPlan plan = FaultPlan{});

    const FaultPlan &plan() const { return plan_; }

    /**
     * Compute-time multiplier for `replica` at time `t`: the largest
     * magnitude among its active straggler events, or 1 if healthy.
     * Ignores crashes — use serviceFactor() when crash dominance
     * matters.
     */
    double stragglerFactor(int replica, double t) const;

    /**
     * Combined per-replica work multiplier: +infinity once the replica
     * has crashed (crash dominates straggler), else the straggler
     * factor. The serving layer prices batch service time with this.
     */
    double serviceFactor(int replica, double t) const;

    /**
     * Simulated time of the first crash of `replica`, or +infinity if
     * it never crashes. Lets an event-driven harness decide up front
     * whether a work item scheduled on [start, end) survives.
     */
    double crashTime(int replica) const;

    /**
     * Remaining bandwidth fraction of the worst degraded ring hop at
     * time `t`, or 1 if all links are healthy.
     */
    double linkFactor(double t) const;

    /** True if a crash of `replica` is scheduled at or before `t`. */
    bool crashed(int replica, double t) const;

  private:
    FaultPlan plan_;
};

} // namespace gnnmark

#endif // GNNMARK_SIM_FAULT_INJECTOR_HH
