#include "sim/fault_injector.hh"

#include <algorithm>
#include <limits>

#include "base/logging.hh"

namespace gnnmark {

namespace {

/** True if an event with a duration is active at time t. */
bool
activeAt(const FaultEvent &e, double t)
{
    if (t < e.timeSec)
        return false;
    return e.durationSec <= 0 || t < e.timeSec + e.durationSec;
}

} // namespace

const char *
faultKindName(FaultKind kind)
{
    switch (kind) {
      case FaultKind::ReplicaCrash:
        return "crash";
      case FaultKind::Straggler:
        return "straggler";
      case FaultKind::DegradedLink:
        return "degraded-link";
      case FaultKind::TransientKernel:
        return "transient";
    }
    return "unknown";
}

FaultPlan::FaultPlan(std::vector<FaultEvent> events)
    : events_(std::move(events))
{
    for (const FaultEvent &e : events_) {
        GNN_ASSERT(e.timeSec >= 0, "fault events need timeSec >= 0");
        if (e.kind == FaultKind::Straggler) {
            GNN_ASSERT(e.magnitude >= 1.0,
                       "straggler magnitude is a slowdown multiplier, "
                       "got %f",
                       e.magnitude);
        } else if (e.kind == FaultKind::DegradedLink) {
            GNN_ASSERT(e.magnitude > 0 && e.magnitude <= 1.0,
                       "degraded-link magnitude is a bandwidth "
                       "fraction in (0, 1], got %f",
                       e.magnitude);
        }
    }
    std::stable_sort(events_.begin(), events_.end(),
                     [](const FaultEvent &a, const FaultEvent &b) {
                         return a.timeSec < b.timeSec;
                     });
}

FaultInjector::FaultInjector(FaultPlan plan) : plan_(std::move(plan)) {}

double
FaultInjector::stragglerFactor(int replica, double t) const
{
    double factor = 1.0;
    for (const FaultEvent &e : plan_.events()) {
        if (e.kind == FaultKind::Straggler && e.replica == replica &&
            activeAt(e, t)) {
            factor = std::max(factor, e.magnitude);
        }
    }
    return factor;
}

double
FaultInjector::serviceFactor(int replica, double t) const
{
    // Crash dominates straggler: a dead replica does no work, however
    // slow a concurrent straggler window says it would have been.
    if (crashed(replica, t))
        return std::numeric_limits<double>::infinity();
    return stragglerFactor(replica, t);
}

double
FaultInjector::crashTime(int replica) const
{
    for (const FaultEvent &e : plan_.events()) {
        if (e.kind == FaultKind::ReplicaCrash && e.replica == replica)
            return e.timeSec; // events are sorted: first crash wins
    }
    return std::numeric_limits<double>::infinity();
}

double
FaultInjector::linkFactor(double t) const
{
    double factor = 1.0;
    for (const FaultEvent &e : plan_.events()) {
        if (e.kind == FaultKind::DegradedLink && activeAt(e, t))
            factor = std::min(factor, e.magnitude);
    }
    return factor;
}

bool
FaultInjector::crashed(int replica, double t) const
{
    for (const FaultEvent &e : plan_.events()) {
        if (e.kind == FaultKind::ReplicaCrash && e.replica == replica &&
            e.timeSec <= t) {
            return true;
        }
    }
    return false;
}

} // namespace gnnmark
