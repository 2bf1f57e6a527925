/**
 * @file
 * Pure-policy tests: backoff schedule and circuit-breaker lifecycle
 * driven by a hand-advanced simulated clock — no event loop involved.
 */

#include <gtest/gtest.h>

#include "serve/policies.hh"

using namespace gnnmark::serve;

TEST(BackoffPolicy, ExponentialUntilCapped)
{
    static_assert(kBackoffBaseSec == 0.002 && kBackoffMultiplier == 2.0 &&
                  kBackoffMaxSec == 0.02);
    EXPECT_DOUBLE_EQ(backoffDelay(1), 0.002);
    EXPECT_DOUBLE_EQ(backoffDelay(2), 0.004);
    EXPECT_DOUBLE_EQ(backoffDelay(3), 0.008);
    EXPECT_DOUBLE_EQ(backoffDelay(4), 0.016);
    EXPECT_DOUBLE_EQ(backoffDelay(5), 0.02); // hits the cap
    EXPECT_DOUBLE_EQ(backoffDelay(50), 0.02);
}

TEST(BackoffPolicy, CanRetryCountsTotalDispatches)
{
    static_assert(kMaxAttempts == 3);
    EXPECT_TRUE(canRetry(1));  // first try failed
    EXPECT_TRUE(canRetry(2));  // one retry failed
    EXPECT_FALSE(canRetry(3)); // budget exhausted
}

namespace {

/** Trip a closed breaker open at `now` with consecutive timeouts. */
void
tripOpen(CircuitBreaker &b, double now)
{
    for (int i = kBreakerOpenAfterTimeouts - 1; i >= 0; --i)
        b.onTimeout(now - 0.001 * i);
}

} // namespace

TEST(CircuitBreaker, OpensOnConsecutiveTimeoutsOnly)
{
    static_assert(kBreakerOpenAfterTimeouts == 3);
    CircuitBreaker b;
    b.onTimeout(0.1);
    b.onTimeout(0.2);
    // A success interleaved resets the streak.
    b.onSuccess(0.3);
    b.onTimeout(0.4);
    b.onTimeout(0.5);
    EXPECT_EQ(b.state(0.55), CircuitBreaker::State::Closed);
    EXPECT_TRUE(b.allows(0.55));
    b.onTimeout(0.6);
    EXPECT_EQ(b.state(0.61), CircuitBreaker::State::Open);
    EXPECT_FALSE(b.allows(0.61));
    EXPECT_EQ(b.openCount(), 1);
}

TEST(CircuitBreaker, CooldownAdmitsProbesThenCloses)
{
    static_assert(kBreakerCooldownSec == 0.05 &&
                  kBreakerProbeSuccesses == 2);
    CircuitBreaker b;
    tripOpen(b, 1.0);
    EXPECT_EQ(b.state(1.04), CircuitBreaker::State::Open);
    EXPECT_DOUBLE_EQ(b.probeTime(), 1.05);
    // Cooldown elapsed: half-open admits probe traffic.
    EXPECT_EQ(b.state(1.05), CircuitBreaker::State::HalfOpen);
    EXPECT_TRUE(b.allows(1.05));
    b.onSuccess(1.06);
    EXPECT_EQ(b.state(1.06), CircuitBreaker::State::HalfOpen);
    b.onSuccess(1.07);
    EXPECT_EQ(b.state(1.07), CircuitBreaker::State::Closed);
    EXPECT_EQ(b.openCount(), 1);
}

TEST(CircuitBreaker, ProbeTimeoutReopensAndRestartsCooldown)
{
    CircuitBreaker b;
    tripOpen(b, 1.0);
    ASSERT_EQ(b.state(1.06), CircuitBreaker::State::HalfOpen);
    b.onSuccess(1.06); // one probe passed...
    b.onTimeout(1.07); // ...but the next one failed
    EXPECT_EQ(b.state(1.08), CircuitBreaker::State::Open);
    EXPECT_EQ(b.openCount(), 2);
    // The cooldown anchors at the re-open, not the original trip.
    EXPECT_DOUBLE_EQ(b.probeTime(), 1.07 + 0.05);
    EXPECT_EQ(b.state(1.12), CircuitBreaker::State::HalfOpen);
    // A full probe streak is needed again from scratch.
    b.onSuccess(1.13);
    b.onSuccess(1.14);
    EXPECT_EQ(b.state(1.14), CircuitBreaker::State::Closed);
}

TEST(CircuitBreaker, StateNames)
{
    EXPECT_STREQ(breakerStateName(CircuitBreaker::State::Closed),
                 "closed");
    EXPECT_STREQ(breakerStateName(CircuitBreaker::State::Open),
                 "open");
    EXPECT_STREQ(breakerStateName(CircuitBreaker::State::HalfOpen),
                 "half_open");
}
