/**
 * @file
 * Tests for the windowed-observability primitives: QuantileSketch,
 * WindowedSeries, BurnRateMonitor and RequestTracer.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "base/rng.hh"
#include "obs/request_trace.hh"
#include "obs/slo.hh"
#include "obs/window.hh"

using namespace gnnmark;

TEST(QuantileSketch, BucketsAreMonotoneAndRoundTrip)
{
    int prev = obs::QuantileSketch::bucketFor(1e-9);
    for (double v = 1e-8; v < 1e12; v *= 1.7) {
        const int b = obs::QuantileSketch::bucketFor(v);
        EXPECT_GE(b, prev) << "bucket index regressed at v=" << v;
        prev = b;
        // The representative value of a bucket lands back in it
        // (except at the clamped extremes).
        if (b > 1 && b < static_cast<int>(obs::kSketchBuckets) - 1) {
            EXPECT_EQ(obs::QuantileSketch::bucketFor(
                          obs::QuantileSketch::bucketValue(b)),
                      b);
        }
    }
    // Non-positive and NaN all collapse into bucket 0.
    EXPECT_EQ(obs::QuantileSketch::bucketFor(0), 0);
    EXPECT_EQ(obs::QuantileSketch::bucketFor(-3.5), 0);
    EXPECT_EQ(obs::QuantileSketch::bucketFor(
                  std::numeric_limits<double>::quiet_NaN()),
              0);
}

TEST(QuantileSketch, QuantileWithinRelativeError)
{
    // Uniform [1, 100): the sketch's 8-per-octave layout bounds the
    // relative error of any quantile by one bucket, ~4.5%.
    obs::QuantileSketch sketch;
    Rng rng(7);
    std::vector<double> values;
    for (int i = 0; i < 20000; ++i) {
        const double v = 1.0 + 99.0 * rng.uniform();
        values.push_back(v);
        sketch.observe(v);
    }
    std::sort(values.begin(), values.end());
    for (double q : {0.5, 0.95, 0.99}) {
        const double exact =
            values[static_cast<size_t>(q * values.size())];
        const double approx = sketch.quantile(q);
        EXPECT_NEAR(approx, exact, 0.05 * exact)
            << "q=" << q;
    }
}

TEST(QuantileSketch, EmptySketchReportsZero)
{
    obs::QuantileSketch sketch;
    EXPECT_EQ(sketch.count(), 0);
    EXPECT_DOUBLE_EQ(sketch.quantile(0.5), 0);
    EXPECT_DOUBLE_EQ(sketch.quantile(0.99), 0);
}

TEST(WindowedSeries, TumblingWindowsWithGaps)
{
    obs::WindowedSeries win(0.5);
    win.observe(0.1, 10);
    win.observe(0.4, 20);
    win.observe(2.2, 5); // windows 1..3 stay quiet except 4
    const std::vector<obs::WindowStats> s = win.series(2.5);
    ASSERT_EQ(s.size(), 5u);
    EXPECT_EQ(s[0].count, 2);
    EXPECT_DOUBLE_EQ(s[0].sum, 30);
    EXPECT_DOUBLE_EQ(s[0].minValue, 10);
    EXPECT_DOUBLE_EQ(s[0].maxValue, 20);
    EXPECT_EQ(s[1].count, 0);
    EXPECT_EQ(s[2].count, 0);
    EXPECT_EQ(s[3].count, 0);
    EXPECT_EQ(s[4].count, 1);
    EXPECT_DOUBLE_EQ(s[4].startSec, 2.0);
    EXPECT_DOUBLE_EQ(s[4].endSec, 2.5);
}

TEST(WindowedSeries, HorizonPadsTrailingEmptyWindows)
{
    obs::WindowedSeries win(1.0);
    win.observe(0.5, 1);
    // Horizon 4s → windows 0..3 even though only window 0 saw data.
    EXPECT_EQ(win.series(4.0).size(), 4u);
    // Empty series over no horizon is empty.
    obs::WindowedSeries empty(1.0);
    EXPECT_TRUE(empty.series(0).empty());
}

TEST(WindowedSeries, CapCollapsesOverflowIntoLastWindow)
{
    obs::WindowedSeries win(0.001, /*windowCap=*/4);
    for (int i = 0; i < 10; ++i)
        win.observe(i * 0.001, 1.0);
    const std::vector<obs::WindowStats> s = win.series(0.010);
    ASSERT_EQ(s.size(), 4u);
    EXPECT_EQ(s[3].count, 7); // windows 3..9 collapsed
    EXPECT_EQ(win.cappedCount(), 6);
    EXPECT_EQ(win.totalCount(), 10);
}

TEST(WindowedSeries, CapHoldsPastInt64Range)
{
    // horizon / width is 1e603, far past what int64_t can hold: the
    // cap must apply before any conversion.
    obs::WindowedSeries win(1e-303, /*windowCap=*/8);
    win.observe(1e300, 2.0);
    EXPECT_EQ(win.windowOf(1e300), 7);
    EXPECT_EQ(win.cappedCount(), 1);
    const std::vector<obs::WindowStats> s = win.series(1e300);
    ASSERT_EQ(s.size(), 8u);
    EXPECT_EQ(s[7].count, 1);
    EXPECT_DOUBLE_EQ(s[7].sum, 2.0);
}

TEST(WindowedSeries, NegativeTimeClampsToWindowZero)
{
    obs::WindowedSeries win(1.0);
    win.observe(-3.0, 7);
    const std::vector<obs::WindowStats> s = win.series(1.0);
    ASSERT_EQ(s.size(), 1u);
    EXPECT_EQ(s[0].count, 1);
}

TEST(BurnRateMonitor, FiresOnlyWhenBothLookbacksBurn)
{
    // Budget 1% — a 50%-error window burns at rate 50.
    obs::BurnRateMonitor mon(0.99, 1.0);
    mon.setRules({{"r", "page", /*long=*/4, /*short=*/1,
                   /*threshold=*/10.0}});
    // Three healthy windows dilute the long lookback below threshold
    // on the first bad window; the second bad window pushes it over.
    mon.addWindow(100, 100);
    mon.addWindow(100, 100);
    mon.addWindow(100, 100);
    mon.addWindow(50, 100); // long burn = 12.5 >= 10 → fires
    mon.finish();
    ASSERT_EQ(mon.alerts().size(), 1u);
    EXPECT_EQ(mon.alerts()[0].startWindow, 3);
    EXPECT_EQ(mon.alerts()[0].endWindow, 3);
    EXPECT_DOUBLE_EQ(mon.alerts()[0].startSec, 3.0);
    EXPECT_DOUBLE_EQ(mon.alerts()[0].endSec, 4.0);
}

TEST(BurnRateMonitor, ConsecutiveFiringWindowsCoalesce)
{
    obs::BurnRateMonitor mon(0.99, 0.5);
    mon.setRules({{"r", "page", 1, 1, 10.0}});
    mon.addWindow(100, 100);
    mon.addWindow(40, 100);
    mon.addWindow(30, 100);
    mon.addWindow(100, 100);
    mon.addWindow(20, 100);
    mon.finish();
    ASSERT_EQ(mon.alerts().size(), 2u);
    EXPECT_EQ(mon.alerts()[0].startWindow, 1);
    EXPECT_EQ(mon.alerts()[0].endWindow, 2);
    EXPECT_NEAR(mon.alerts()[0].errorFraction, 0.65, 1e-9);
    EXPECT_NEAR(mon.alerts()[0].peakBurn, 70.0, 1e-9);
    EXPECT_EQ(mon.alerts()[1].startWindow, 4);
    EXPECT_EQ(mon.alerts()[1].endWindow, 4);
}

TEST(BurnRateMonitor, FinishClosesOpenAlertAndIsIdempotent)
{
    obs::BurnRateMonitor mon(0.9, 1.0);
    mon.setRules({{"r", "page", 1, 1, 2.0}});
    mon.addWindow(0, 10); // burns forever after
    mon.finish();
    mon.finish();
    ASSERT_EQ(mon.alerts().size(), 1u);
    EXPECT_EQ(mon.alerts()[0].endWindow, 0);
    EXPECT_DOUBLE_EQ(mon.budgetConsumed(), 10.0);
}

TEST(BurnRateMonitor, PointsLedgerTracksCumulativeBudget)
{
    obs::BurnRateMonitor mon(0.99, 1.0);
    mon.addWindow(99, 100);
    mon.addWindow(98, 100);
    mon.finish();
    ASSERT_EQ(mon.points().size(), 2u);
    EXPECT_NEAR(mon.points()[0].burnRate, 1.0, 1e-9);
    EXPECT_NEAR(mon.points()[0].budgetConsumed, 1.0, 1e-9);
    EXPECT_NEAR(mon.points()[1].burnRate, 2.0, 1e-9);
    EXPECT_NEAR(mon.points()[1].budgetConsumed, 1.5, 1e-9);
}

TEST(RequestTracer, SamplesEveryNthAndRetainsExemplars)
{
    obs::RequestTracer tracer(/*sampleEvery=*/4);
    for (int64_t id = 0; id < 10; ++id) {
        tracer.addMark(id, "arrival", id * 0.1);
        if (id == 5)
            tracer.retain(id);
        tracer.finish(id, id == 5 ? "shed" : "full");
    }
    const std::vector<obs::RequestTrace> traces = tracer.drain();
    ASSERT_EQ(traces.size(), 4u); // ids 0, 4, 8 sampled + 5 retained
    EXPECT_EQ(traces[0].id, 0);
    EXPECT_EQ(traces[1].id, 4);
    EXPECT_EQ(traces[2].id, 5);
    EXPECT_TRUE(traces[2].exemplar);
    EXPECT_EQ(traces[2].outcome, "shed");
    EXPECT_EQ(traces[3].id, 8);
    EXPECT_FALSE(traces[3].exemplar);
}

TEST(RequestTracer, UnsampledRequestsDropSpansAtFinish)
{
    obs::RequestTracer tracer(2);
    tracer.addSpan(1, "infer", 0.0, 0.5);
    tracer.finish(1, "full");
    EXPECT_TRUE(tracer.drain().empty());
    EXPECT_EQ(tracer.tracedCount(), 0);
}

TEST(RequestTracer, SeparateLaneBudgetsForSampledAndExemplars)
{
    // Cap 2 per class: a flood of sampled requests must not evict
    // exemplars that arrive later.
    obs::RequestTracer tracer(/*sampleEvery=*/2, /*laneCap=*/2);
    for (int64_t id = 0; id < 10; id += 2) { // 5 sampled requests
        tracer.addMark(id, "arrival", id * 1.0);
        tracer.finish(id, "full");
    }
    for (int64_t id = 101; id < 107; id += 2) { // 3 exemplars
        tracer.addMark(id, "arrival", id * 1.0);
        tracer.retain(id);
        tracer.finish(id, "shed");
    }
    const std::vector<obs::RequestTrace> traces = tracer.drain();
    ASSERT_EQ(traces.size(), 4u);
    EXPECT_EQ(traces[0].id, 0);
    EXPECT_EQ(traces[1].id, 2);
    EXPECT_EQ(traces[2].id, 101);
    EXPECT_EQ(traces[3].id, 103);
    EXPECT_EQ(tracer.droppedByCap(), 4); // ids 4, 6, 8 and 105
    EXPECT_EQ(tracer.tracedCount(), 4);
}

TEST(RequestTracer, SampledRetainedRequestCountsAsSampled)
{
    // A request that is both sampled and retained spends the sampled
    // budget and is not flagged as an exemplar.
    obs::RequestTracer tracer(1, 4);
    tracer.addMark(0, "arrival", 0.0);
    tracer.retain(0);
    tracer.finish(0, "full");
    const std::vector<obs::RequestTrace> traces = tracer.drain();
    ASSERT_EQ(traces.size(), 1u);
    EXPECT_FALSE(traces[0].exemplar);
}

TEST(RequestTracer, SpanEndClampsToStart)
{
    obs::RequestTracer tracer(1);
    tracer.addSpan(0, "backwards", 2.0, 1.0);
    tracer.finish(0, "full");
    const std::vector<obs::RequestTrace> traces = tracer.drain();
    ASSERT_EQ(traces.size(), 1u);
    ASSERT_EQ(traces[0].spans.size(), 1u);
    EXPECT_DOUBLE_EQ(traces[0].spans[0].endSec, 2.0);
}
