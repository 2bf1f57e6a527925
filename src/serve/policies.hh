/**
 * @file
 * Pure robustness state machines, decoupled from the event loop so
 * they can be unit-tested against a hand-driven simulated clock:
 *
 *  - Backoff: capped exponential backoff for retries. Retry n
 *    (1-based) waits min(kBackoffBaseSec * kBackoffMultiplier^(n-1),
 *    kBackoffMaxSec) seconds, up to kMaxAttempts total dispatches.
 *
 *  - CircuitBreaker: per-replica Closed -> Open -> HalfOpen cycle.
 *    kBreakerOpenAfterTimeouts consecutive timeouts open the breaker;
 *    after kBreakerCooldownSec it admits probe traffic (HalfOpen), and
 *    kBreakerProbeSuccesses consecutive probe successes close it
 *    again. A probe timeout re-opens immediately and restarts the
 *    cooldown.
 *
 * Both run on explicit simulated time passed by the caller; neither
 * reads a wall clock, so behaviour is deterministic and replayable.
 */

#ifndef GNNMARK_SERVE_POLICIES_HH
#define GNNMARK_SERVE_POLICIES_HH

#include <cstdint>

namespace gnnmark {
namespace serve {

/** @{ Capped exponential backoff schedule for request retries. */
/** Delay before the first retry. */
inline constexpr double kBackoffBaseSec = 0.002;
/** Growth factor per retry. */
inline constexpr double kBackoffMultiplier = 2.0;
static_assert(kBackoffMultiplier >= 1.0, "backoff must not shrink");
/** Ceiling on any single delay. */
inline constexpr double kBackoffMaxSec = 0.02;
/** Total dispatch attempts (first try + retries). */
inline constexpr int kMaxAttempts = 3;
/** @} */

/**
 * Delay before retry number `retry` (1-based: 1 follows the first
 * failure). Exponential in the retry index, capped.
 */
double backoffDelay(int retry);

/** Whether a request on `attempts` dispatches may try again. */
inline bool
canRetry(int attempts)
{
    return attempts < kMaxAttempts;
}

/** @{ Circuit-breaker tuning. */
/** Consecutive timeouts that trip the breaker open. */
inline constexpr int kBreakerOpenAfterTimeouts = 3;
/** Open hold time before probes are admitted. */
inline constexpr double kBreakerCooldownSec = 0.05;
/** Consecutive probe successes that close it again. */
inline constexpr int kBreakerProbeSuccesses = 2;
/** @} */

/**
 * One replica's circuit breaker. All transitions are driven by the
 * simulated `now` the caller passes in; Open -> HalfOpen happens
 * lazily inside state()/allows() once the cooldown has elapsed.
 */
class CircuitBreaker
{
  public:
    enum class State : uint8_t { Closed, Open, HalfOpen };

    /** Current state at simulated time `now`. */
    State state(double now);

    /** Whether new work may be sent to this replica at `now`. */
    bool allows(double now) { return state(now) != State::Open; }

    /** Record a successful completion observed at `now`. */
    void onSuccess(double now);

    /** Record a timeout observed at `now`. */
    void onTimeout(double now);

    /** Times the breaker tripped open (telemetry). */
    int64_t openCount() const { return open_count_; }

    /**
     * When probes become admissible again. Meaningful only while
     * Open (event-driven callers re-arm their dispatch check here).
     */
    double probeTime() const { return opened_at_ + kBreakerCooldownSec; }

  private:
    State state_ = State::Closed;
    /** Consecutive timeouts while Closed. */
    int timeout_streak_ = 0;
    /** Consecutive successes while HalfOpen. */
    int probe_streak_ = 0;
    /** When the breaker last opened (cooldown anchor). */
    double opened_at_ = 0;
    int64_t open_count_ = 0;
};

/** Stable lower-case breaker state name, e.g. "half_open". */
const char *breakerStateName(CircuitBreaker::State state);

} // namespace serve
} // namespace gnnmark

#endif // GNNMARK_SERVE_POLICIES_HH
