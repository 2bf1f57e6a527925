/**
 * @file
 * The generation report twins: the JSON document carries only
 * deterministic fields, reconstructs the 64-bit checksum exactly from
 * its hi/lo halves, and agrees with the human-readable table.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "core/reports.hh"
#include "core/reports_json.hh"
#include "obs/json.hh"

using namespace gnnmark;

namespace {

gen::GenReport
sampleReport()
{
    gen::GenReport rep;
    rep.family = "hyperbolic";
    rep.requestedVertices = 20000;
    rep.vertices = 20000;
    rep.targetEdges = 80000;
    rep.chunks = 5;
    rep.lookahead = 4;
    rep.seed = 42;
    rep.threads = 4;
    rep.edges = 80289;
    rep.chunksEmitted = 5;
    rep.checksum = 0x844a4930f016a604ULL;
    rep.peakResidentBytes = 1 << 20;
    rep.residentBudgetBytes = 5 << 20;
    rep.wallSec = 0.25;
    rep.edgesPerSec = 4.0 * 80289;
    gen::DegreeStats &degrees = rep.degrees.emplace();
    degrees.vertices = 20000;
    degrees.minDegree = 1;
    degrees.maxDegree = 1432;
    degrees.meanDegree = 8.03;
    degrees.powerLawSlope = -1.73;
    degrees.slopeValid = true;
    degrees.modalFraction = 0.162;
    degrees.modalDegree = 4;
    degrees.distinctDegrees = 135;
    gen::StreamTrainResult &training = rep.training.emplace();
    training.batches = 5;
    training.edgesConsumed = 80289;
    training.firstLoss = 1.363;
    training.lastLoss = 1.313;
    training.peakResidentBytes = 1 << 19;
    return rep;
}

} // namespace

TEST(GenReportJson, ChecksumRoundTripsThroughHiLoHalves)
{
    const gen::GenReport rep = sampleReport();
    const obs::JsonValue doc = obs::parseJson(reports::genJson(rep));
    const obs::JsonValue *stream =
        doc.find("generation")->find("stream");
    ASSERT_NE(stream, nullptr);
    const uint64_t hi =
        static_cast<uint64_t>(stream->find("checksum_hi")->number);
    const uint64_t lo =
        static_cast<uint64_t>(stream->find("checksum_lo")->number);
    EXPECT_EQ((hi << 32) | lo, rep.checksum);
    // Halves fit doubles exactly.
    EXPECT_LT(hi, uint64_t{1} << 32);
    EXPECT_LT(lo, uint64_t{1} << 32);
}

TEST(GenReportJson, DocumentOmitsWallClock)
{
    const std::string json = reports::genJson(sampleReport());
    EXPECT_EQ(json.find("wall_sec"), std::string::npos);
    EXPECT_EQ(json.find("edges_per_sec"), std::string::npos);
    EXPECT_EQ(json.find("threads"), std::string::npos);
    // The telemetry record is where timing lives, under host_* names
    // that bench_diff skips.
    const std::string record =
        reports::genRecordJson("gen", sampleReport());
    EXPECT_NE(record.find("\"host_wall_sec\""), std::string::npos);
    EXPECT_NE(record.find("\"host_edges_per_sec\""), std::string::npos);
    EXPECT_NE(record.find("\"type\":\"generation\""), std::string::npos);
}

TEST(GenReportJson, DocumentIsByteStable)
{
    EXPECT_EQ(reports::genJson(sampleReport()),
              reports::genJson(sampleReport()));
    // Wall-clock jitter must not leak into the document.
    gen::GenReport other = sampleReport();
    other.wallSec *= 17.0;
    other.edgesPerSec /= 3.0;
    other.threads = 16;
    EXPECT_EQ(reports::genJson(other), reports::genJson(sampleReport()));
}

TEST(GenReportJson, OptionalBlocksAppearOnDemand)
{
    gen::GenReport rep = sampleReport();
    rep.degrees.reset();
    rep.training.reset();
    const std::string json = reports::genJson(rep);
    EXPECT_EQ(json.find("degrees"), std::string::npos);
    EXPECT_EQ(json.find("training"), std::string::npos);
    const obs::JsonValue doc = obs::parseJson(json);
    EXPECT_EQ(doc.find("generation")
                  ->find("stream")
                  ->find("edges")
                  ->number,
              80289.0);
}

TEST(GenReportText, TwinAgreesWithJson)
{
    const gen::GenReport rep = sampleReport();
    std::ostringstream os;
    reports::printGen(rep, os);
    const std::string text = os.str();
    // The load-bearing numbers appear in both renderings.
    EXPECT_NE(text.find("80289"), std::string::npos);       // edges
    EXPECT_NE(text.find("844a4930f016a604"), std::string::npos);
    EXPECT_NE(text.find("hyperbolic"), std::string::npos);
    EXPECT_NE(text.find("1432"), std::string::npos);        // max degree
    EXPECT_NE(text.find("-1.730"), std::string::npos);      // slope
    const obs::JsonValue doc = obs::parseJson(reports::genJson(rep));
    EXPECT_EQ(doc.find("generation")
                  ->find("stream")
                  ->find("edges")
                  ->number,
              80289.0);
    EXPECT_EQ(doc.find("generation")
                  ->find("degrees")
                  ->find("max")
                  ->number,
              1432.0);
}
