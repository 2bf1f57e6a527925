/** @file Tests for the sharded metrics registry. */

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "base/thread_pool.hh"
#include "obs/json.hh"
#include "obs/metrics.hh"
#include "obs/telemetry.hh"

using namespace gnnmark;

namespace {

/** Metrics is a process-wide singleton; every test starts clean. */
struct MetricsTest : ::testing::Test
{
    void SetUp() override { obs::Metrics::instance().reset(); }
    void TearDown() override { obs::Metrics::instance().reset(); }
};

} // namespace

TEST_F(MetricsTest, CountersAccumulate)
{
    obs::Metrics &m = obs::Metrics::instance();
    m.add("test.hits");
    m.add("test.hits", 4);
    m.add("test.bytes", 1024);
    const obs::MetricsSnapshot snap = m.snapshot();
    EXPECT_DOUBLE_EQ(snap.counters.at("test.hits"), 5);
    EXPECT_DOUBLE_EQ(snap.counters.at("test.bytes"), 1024);
}

TEST_F(MetricsTest, GaugesLastWriteWins)
{
    obs::Metrics &m = obs::Metrics::instance();
    m.setGauge("test.loss", 0.9);
    m.setGauge("test.loss", 0.5);
    EXPECT_DOUBLE_EQ(m.snapshot().gauges.at("test.loss"), 0.5);
}

TEST_F(MetricsTest, HistogramBucketsAreLog2)
{
    EXPECT_EQ(obs::Metrics::histogramBucket(0), 0);
    EXPECT_EQ(obs::Metrics::histogramBucket(-3), 0);
    EXPECT_EQ(obs::Metrics::histogramBucket(1.0), 32);
    EXPECT_EQ(obs::Metrics::histogramBucket(1.5), 32);
    EXPECT_EQ(obs::Metrics::histogramBucket(2.0), 33);
    EXPECT_EQ(obs::Metrics::histogramBucket(0.5), 31);
    // Extremes clamp instead of running off the array.
    EXPECT_EQ(obs::Metrics::histogramBucket(1e300), 63);
    EXPECT_EQ(obs::Metrics::histogramBucket(1e-300), 1);
}

TEST_F(MetricsTest, HistogramObservationsLandInBuckets)
{
    obs::Metrics &m = obs::Metrics::instance();
    m.observe("test.lat", 1.0);
    m.observe("test.lat", 1.9);
    m.observe("test.lat", 4.0);
    const obs::MetricsSnapshot snap = m.snapshot();
    const auto &buckets = snap.histograms.at("test.lat");
    EXPECT_EQ(buckets[32], 2);
    EXPECT_EQ(buckets[34], 1);
}

TEST_F(MetricsTest, ResetZeroesEverything)
{
    obs::Metrics &m = obs::Metrics::instance();
    m.add("test.c", 7);
    m.setGauge("test.g", 3);
    m.observe("test.h", 2.0);
    m.reset();
    const obs::MetricsSnapshot snap = m.snapshot();
    EXPECT_DOUBLE_EQ(snap.counters.at("test.c"), 0);
    EXPECT_EQ(snap.gauges.count("test.g"), 0u);
    EXPECT_EQ(snap.histograms.at("test.h")[33], 0);
}

TEST_F(MetricsTest, HandleClassesShareTheRegistry)
{
    obs::Counter c("test.handle");
    obs::Histogram h("test.handle_hist");
    c.add();
    c.add(2);
    h.observe(1.0);
    const obs::MetricsSnapshot snap =
        obs::Metrics::instance().snapshot();
    EXPECT_DOUBLE_EQ(snap.counters.at("test.handle"), 3);
    EXPECT_EQ(snap.histograms.at("test.handle_hist")[32], 1);
}

TEST_F(MetricsTest, ShardsSumAcrossPoolThreads)
{
    obs::Metrics &m = obs::Metrics::instance();
    // Integer increments from many threads must sum exactly (the
    // registry's determinism contract).
    parallel_for(0, 1000, 1,
                 [&](int64_t b, int64_t e) {
                     for (int64_t i = b; i < e; ++i)
                         m.add("test.parallel");
                 });
    EXPECT_DOUBLE_EQ(m.snapshot().counters.at("test.parallel"), 1000);
}

TEST_F(MetricsTest, NonFiniteGaugesAreRejected)
{
    obs::Metrics &m = obs::Metrics::instance();
    m.setGauge("test.bad", std::nan(""));
    EXPECT_EQ(m.snapshot().gauges.count("test.bad"), 0u);
    // A rejected write never clobbers the last good value.
    m.setGauge("test.mixed", 3.0);
    m.setGauge("test.mixed",
               std::numeric_limits<double>::infinity());
    m.setGauge("test.mixed",
               -std::numeric_limits<double>::infinity());
    EXPECT_DOUBLE_EQ(m.snapshot().gauges.at("test.mixed"), 3.0);
}

TEST_F(MetricsTest, CardinalityLimitAliasesOverflowNames)
{
    obs::Metrics &m = obs::Metrics::instance();
    // The registry keeps interned names across reset(), so size the
    // limit relative to what this process already registered.
    const obs::MetricsSnapshot before = m.snapshot();
    const size_t used = before.counters.size() +
                        before.histograms.size() +
                        before.gauges.size();
    m.setCardinalityLimit(used + 2);

    m.add("test.card.a");     // fits
    m.add("test.card.b");     // fills the registry
    m.add("test.card.c", 5);  // overflows -> obs.dropped_names
    m.observe("test.card.h", 1.0); // overflows too
    m.setGauge("test.card.g", 1.0); // new gauge: discarded

    const obs::MetricsSnapshot snap = m.snapshot();
    EXPECT_EQ(snap.counters.count("test.card.a"), 1u);
    EXPECT_EQ(snap.counters.count("test.card.c"), 0u);
    EXPECT_DOUBLE_EQ(snap.counters.at("obs.dropped_names"), 5);
    EXPECT_EQ(snap.histograms.count("test.card.h"), 0u);
    EXPECT_EQ(snap.gauges.count("test.card.g"), 0u);
    EXPECT_GE(m.droppedNames(), 3);

    // Existing names keep working at capacity.
    m.add("test.card.a", 2);
    EXPECT_DOUBLE_EQ(m.snapshot().counters.at("test.card.a"), 3);
}

TEST_F(MetricsTest, SnapshotSerializesEmptyHistogramAsEmptyArray)
{
    obs::Metrics &m = obs::Metrics::instance();
    // Intern a histogram name without observations (reset() keeps the
    // name but zeroes the buckets) plus one with a single bucket.
    m.observe("test.empty", 1.0);
    m.reset();
    m.observe("test.one", 1.0);

    obs::JsonWriter w;
    obs::writeMetricsSnapshot(w, m.snapshot());
    const obs::JsonValue doc = obs::parseJson(w.str());
    const obs::JsonValue *hists = doc.find("histograms");
    ASSERT_NE(hists, nullptr);
    const obs::JsonValue *empty = hists->find("test.empty");
    ASSERT_NE(empty, nullptr);
    EXPECT_TRUE(empty->isArray());
    EXPECT_TRUE(empty->array.empty());
    // Trailing zero buckets are trimmed, not padded to 64 entries.
    const obs::JsonValue *one = hists->find("test.one");
    ASSERT_NE(one, nullptr);
    EXPECT_EQ(one->array.size(), 33u); // buckets 0..32
}
