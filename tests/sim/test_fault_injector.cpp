/** @file Tests for the deterministic fault injector. */

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "base/io.hh"
#include "sim/fault_injector.hh"
#include "sim/fault_plan_io.hh"

using namespace gnnmark;

namespace {

FaultEvent
event(FaultKind kind, double t, int replica = 0, double duration = 0,
      double magnitude = 1.0)
{
    FaultEvent e;
    e.kind = kind;
    e.timeSec = t;
    e.replica = replica;
    e.durationSec = duration;
    e.magnitude = magnitude;
    return e;
}

} // namespace

TEST(FaultPlan, SortsEventsByTime)
{
    FaultPlan plan({event(FaultKind::ReplicaCrash, 3.0, 1),
                    event(FaultKind::Straggler, 1.0, 0, 0.5, 2.0),
                    event(FaultKind::TransientKernel, 2.0)});
    ASSERT_EQ(plan.events().size(), 3u);
    EXPECT_DOUBLE_EQ(plan.events()[0].timeSec, 1.0);
    EXPECT_DOUBLE_EQ(plan.events()[1].timeSec, 2.0);
    EXPECT_DOUBLE_EQ(plan.events()[2].timeSec, 3.0);
}

TEST(FaultPlanDeath, RejectsInvalidMagnitudes)
{
    EXPECT_DEATH(
        FaultPlan({event(FaultKind::Straggler, 0.0, 0, 1.0, 0.5)}),
        "straggler magnitude");
    EXPECT_DEATH(
        FaultPlan({event(FaultKind::DegradedLink, 0.0, 0, 1.0, 1.5)}),
        "degraded-link magnitude");
    EXPECT_DEATH(
        FaultPlan({event(FaultKind::ReplicaCrash, -1.0)}),
        "timeSec >= 0");
}

TEST(FaultInjector, StragglerFactorWindowed)
{
    FaultInjector inj(FaultPlan(
        {event(FaultKind::Straggler, 1.0, 2, 0.5, 3.0)}));
    EXPECT_DOUBLE_EQ(inj.stragglerFactor(2, 0.5), 1.0); // before
    EXPECT_DOUBLE_EQ(inj.stragglerFactor(2, 1.2), 3.0); // during
    EXPECT_DOUBLE_EQ(inj.stragglerFactor(2, 1.6), 1.0); // after
    EXPECT_DOUBLE_EQ(inj.stragglerFactor(0, 1.2), 1.0); // other replica
}

TEST(FaultInjector, OverlappingStragglersTakeWorst)
{
    FaultInjector inj(FaultPlan(
        {event(FaultKind::Straggler, 0.0, 1, 2.0, 2.0),
         event(FaultKind::Straggler, 0.5, 1, 1.0, 4.0)}));
    EXPECT_DOUBLE_EQ(inj.stragglerFactor(1, 0.2), 2.0);
    EXPECT_DOUBLE_EQ(inj.stragglerFactor(1, 0.8), 4.0);
}

TEST(FaultInjector, LinkFactorTakesWorstActiveHop)
{
    FaultInjector inj(FaultPlan(
        {event(FaultKind::DegradedLink, 0.0, 0, 2.0, 0.5),
         event(FaultKind::DegradedLink, 0.5, 0, 1.0, 0.25)}));
    EXPECT_DOUBLE_EQ(inj.linkFactor(0.2), 0.5);
    EXPECT_DOUBLE_EQ(inj.linkFactor(0.8), 0.25);
    EXPECT_DOUBLE_EQ(inj.linkFactor(3.0), 1.0);
}

TEST(FaultInjector, PermanentCrashNeverHeals)
{
    FaultInjector inj(FaultPlan(
        {event(FaultKind::ReplicaCrash, 2.0, 1)}));
    EXPECT_FALSE(inj.crashed(1, 1.9));
    EXPECT_TRUE(inj.crashed(1, 2.0));
    EXPECT_TRUE(inj.crashed(1, 1e9));
    EXPECT_FALSE(inj.crashed(0, 1e9));
}

TEST(FaultInjector, ServiceFactorCrashDominatesStraggler)
{
    // Straggler window covers the crash; once crashed the replica
    // does no work at all, so the factor jumps to +inf, not 4x.
    FaultInjector inj(FaultPlan(
        {event(FaultKind::Straggler, 1.0, 0, 5.0, 4.0),
         event(FaultKind::ReplicaCrash, 3.0, 0)}));
    EXPECT_DOUBLE_EQ(inj.serviceFactor(0, 0.5), 1.0);
    EXPECT_DOUBLE_EQ(inj.serviceFactor(0, 2.0), 4.0);
    EXPECT_TRUE(std::isinf(inj.serviceFactor(0, 3.0)));
    EXPECT_TRUE(std::isinf(inj.serviceFactor(0, 100.0)));
    // The straggler query itself still reports the window; the
    // precedence lives in serviceFactor, by contract.
    EXPECT_DOUBLE_EQ(inj.stragglerFactor(0, 4.0), 4.0);
    EXPECT_DOUBLE_EQ(inj.serviceFactor(1, 4.0), 1.0);
}

TEST(FaultInjector, CrashTimeIsFirstCrashOrInfinity)
{
    FaultInjector inj(FaultPlan(
        {event(FaultKind::ReplicaCrash, 5.0, 1),
         event(FaultKind::ReplicaCrash, 2.0, 1),
         event(FaultKind::Straggler, 0.5, 0, 1.0, 2.0)}));
    EXPECT_DOUBLE_EQ(inj.crashTime(1), 2.0);
    EXPECT_TRUE(std::isinf(inj.crashTime(0)));
    EXPECT_TRUE(std::isinf(inj.crashTime(7)));
}

TEST(FaultPlanIo, TextRoundTripIsExact)
{
    // Every kind, with doubles that need all 17 significant digits.
    const FaultPlan plan(
        {event(FaultKind::Straggler, 1.0 / 3.0, 2, 0.1 + 0.2,
               1.0 + 3.0 / 7.0),
         event(FaultKind::ReplicaCrash, std::nextafter(2.0, 3.0), 3),
         event(FaultKind::DegradedLink, 0.7, 0, 1.0 / 9.0, 0.25 / 3.0),
         event(FaultKind::TransientKernel, 5.0 / 7.0)});

    const std::string text = faultPlanToText(plan);
    FaultPlan back = faultPlanFromText(text, "round-trip");
    ASSERT_EQ(back.events().size(), plan.events().size());
    for (size_t i = 0; i < plan.events().size(); ++i) {
        const FaultEvent &a = plan.events()[i];
        const FaultEvent &b = back.events()[i];
        EXPECT_EQ(static_cast<int>(a.kind), static_cast<int>(b.kind));
        // %.17g round-trips doubles bitwise.
        EXPECT_EQ(a.timeSec, b.timeSec);
        EXPECT_EQ(a.replica, b.replica);
        EXPECT_EQ(a.durationSec, b.durationSec);
        EXPECT_EQ(a.magnitude, b.magnitude);
    }
    // Serializing the reloaded plan reproduces the bytes.
    EXPECT_EQ(faultPlanToText(back), text);
}

TEST(FaultPlanIo, ParserSkipsCommentsAndBlankLines)
{
    FaultPlan plan = faultPlanFromText(
        "# leading comment\n"
        "gnnmark-fault-plan v1\n"
        "\n"
        "# a straggler\n"
        "straggler time=0.5 replica=1 duration=2 magnitude=4\r\n"
        "crash time=1.25 replica=2\n",
        "test");
    ASSERT_EQ(plan.events().size(), 2u);
    EXPECT_EQ(static_cast<int>(plan.events()[0].kind),
              static_cast<int>(FaultKind::Straggler));
    EXPECT_DOUBLE_EQ(plan.events()[0].magnitude, 4.0);
    EXPECT_EQ(plan.events()[1].replica, 2);
}

TEST(FaultPlanIo, CorruptInputsThrowIoError)
{
    auto kindOf = [](const std::string &text) {
        try {
            faultPlanFromText(text, "test");
        } catch (const IoError &e) {
            return e.kind();
        }
        ADD_FAILURE() << "no IoError for: " << text;
        return IoError::Kind::OpenFailed;
    };
    EXPECT_EQ(kindOf(""), IoError::Kind::BadMagic);
    EXPECT_EQ(kindOf("not-a-plan v1\n"), IoError::Kind::BadMagic);
    EXPECT_EQ(kindOf("gnnmark-fault-plan v9\n"),
              IoError::Kind::BadVersion);
    EXPECT_EQ(kindOf("gnnmark-fault-plan v1\nmeteor time=1\n"),
              IoError::Kind::Corrupt); // unknown kind
    EXPECT_EQ(kindOf("gnnmark-fault-plan v1\ncrash replica=0\n"),
              IoError::Kind::Corrupt); // missing time
    EXPECT_EQ(kindOf("gnnmark-fault-plan v1\ncrash time=abc\n"),
              IoError::Kind::Corrupt); // bad number
    EXPECT_EQ(kindOf("gnnmark-fault-plan v1\ncrash time=1 huh=2\n"),
              IoError::Kind::Corrupt); // unknown field
    EXPECT_EQ(
        kindOf("gnnmark-fault-plan v1\n"
               "straggler time=1 replica=0 magnitude=0.5\n"),
        IoError::Kind::Corrupt); // invalid magnitude
}
