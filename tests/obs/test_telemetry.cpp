/** @file Tests for the JSONL telemetry sink and snapshot encoding. */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "base/io.hh"
#include "obs/json.hh"
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

TEST(MetricsSnapshotJson, HistogramBucketsAreLog2)
{
    EXPECT_EQ(obs::histogramBucket(0), 0);
    EXPECT_EQ(obs::histogramBucket(-3), 0);
    EXPECT_EQ(obs::histogramBucket(1.0), 32);
    EXPECT_EQ(obs::histogramBucket(1.5), 32);
    EXPECT_EQ(obs::histogramBucket(2.0), 33);
    EXPECT_EQ(obs::histogramBucket(0.5), 31);
    // Extremes clamp instead of running off the array.
    EXPECT_EQ(obs::histogramBucket(1e300), 63);
    EXPECT_EQ(obs::histogramBucket(1e-300), 1);
}

TEST(MetricsSnapshotJson, HistogramsTrimTrailingZeroBuckets)
{
    obs::MetricsSnapshot snap;
    snap.counters["snap.count"] = 3;
    snap.gauges["snap.gauge"] = 0.25;
    ++snap.histograms["snap.hist"][obs::histogramBucket(1.0)]; // 32
    snap.histograms["snap.empty"].fill(0);

    obs::JsonWriter w;
    obs::writeMetricsSnapshot(w, snap);

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
    // A histogram with no observations is an empty array.
    const obs::JsonValue *empty =
        doc.find("histograms")->find("snap.empty");
    ASSERT_NE(empty, nullptr);
    EXPECT_TRUE(empty->isArray());
    EXPECT_TRUE(empty->array.empty());
}
