#include "serve/policies.hh"

#include <algorithm>
#include <cmath>

#include "base/logging.hh"

namespace gnnmark {
namespace serve {

double
backoffDelay(int retry)
{
    GNN_ASSERT(retry >= 1, "retry index is 1-based, got %d", retry);
    const double raw =
        kBackoffBaseSec * std::pow(kBackoffMultiplier, retry - 1);
    return std::min(raw, kBackoffMaxSec);
}

CircuitBreaker::State
CircuitBreaker::state(double now)
{
    if (state_ == State::Open &&
        now >= opened_at_ + kBreakerCooldownSec) {
        state_ = State::HalfOpen;
        probe_streak_ = 0;
    }
    return state_;
}

void
CircuitBreaker::onSuccess(double now)
{
    switch (state(now)) {
      case State::Closed:
        timeout_streak_ = 0;
        break;
      case State::HalfOpen:
        if (++probe_streak_ >= kBreakerProbeSuccesses) {
            state_ = State::Closed;
            timeout_streak_ = 0;
        }
        break;
      case State::Open:
        // Success from a batch dispatched before the trip; the
        // replica still looks suspect, so it does not shorten the
        // cooldown.
        break;
    }
}

void
CircuitBreaker::onTimeout(double now)
{
    switch (state(now)) {
      case State::Closed:
        if (++timeout_streak_ >= kBreakerOpenAfterTimeouts) {
            state_ = State::Open;
            opened_at_ = now;
            ++open_count_;
        }
        break;
      case State::HalfOpen:
        // A failed probe re-opens immediately.
        state_ = State::Open;
        opened_at_ = now;
        ++open_count_;
        break;
      case State::Open:
        break;
    }
}

const char *
breakerStateName(CircuitBreaker::State state)
{
    switch (state) {
      case CircuitBreaker::State::Closed:
        return "closed";
      case CircuitBreaker::State::Open:
        return "open";
      case CircuitBreaker::State::HalfOpen:
        return "half_open";
    }
    return "unknown";
}

} // namespace serve
} // namespace gnnmark
