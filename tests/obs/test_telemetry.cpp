/** @file Tests for the JSONL telemetry sink and snapshot encoding. */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "base/io.hh"
#include "obs/json.hh"
#include "obs/metrics.hh"
#include "obs/telemetry.hh"

using namespace gnnmark;

namespace {

std::string
tempPath(const std::string &name)
{
    return ::testing::TempDir() + name;
}

std::string
slurp(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream out;
    out << in.rdbuf();
    return out.str();
}

} // namespace

TEST(TelemetrySink, WritesOneLinePerRecord)
{
    const std::string path = tempPath("gnnmark_telemetry_lines.jsonl");
    {
        obs::TelemetrySink sink(path);
        sink.writeRecord("{\"a\":1}");
        sink.writeRecord("{\"b\":2}");
        EXPECT_EQ(sink.recordCount(), 2);
        EXPECT_EQ(sink.path(), path);
    }
    EXPECT_EQ(slurp(path), "{\"a\":1}\n{\"b\":2}\n");
    std::remove(path.c_str());
}

TEST(TelemetrySink, ReopeningTruncates)
{
    const std::string path = tempPath("gnnmark_telemetry_trunc.jsonl");
    {
        obs::TelemetrySink sink(path);
        sink.writeRecord("{\"old\":true}");
    }
    {
        obs::TelemetrySink sink(path);
        sink.writeRecord("{\"new\":true}");
    }
    EXPECT_EQ(slurp(path), "{\"new\":true}\n");
    std::remove(path.c_str());
}

TEST(TelemetrySink, UnwritableDirectoryThrowsIoError)
{
    EXPECT_THROW(obs::TelemetrySink("/no-such-dir/telemetry.jsonl"),
                 IoError);
}

TEST(MetricsSnapshotJson, HistogramsTrimTrailingZeroBuckets)
{
    obs::Metrics &m = obs::Metrics::instance();
    m.reset();
    m.add("snap.count", 3);
    m.setGauge("snap.gauge", 0.25);
    m.observe("snap.hist", 1.0); // bucket 32

    obs::JsonWriter w;
    obs::writeMetricsSnapshot(w, m.snapshot());
    m.reset();

    const obs::JsonValue doc = obs::parseJson(w.str());
    EXPECT_DOUBLE_EQ(doc.find("counters")->find("snap.count")->number,
                     3);
    EXPECT_DOUBLE_EQ(doc.find("gauges")->find("snap.gauge")->number,
                     0.25);
    const obs::JsonValue *hist =
        doc.find("histograms")->find("snap.hist");
    ASSERT_NE(hist, nullptr);
    // Buckets beyond the last nonzero one (index 32) are trimmed.
    ASSERT_EQ(hist->array.size(), 33u);
    EXPECT_DOUBLE_EQ(hist->array[32].number, 1);
    EXPECT_DOUBLE_EQ(hist->array[0].number, 0);
}
