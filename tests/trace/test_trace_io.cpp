/** @file File-level trace I/O tests: round trip through disk, and a
 *  typed IoError for every way a trace file can be malformed. */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "base/io.hh"
#include "common/file_corruption.hh"
#include "sim/warp_trace.hh"
#include "trace/format.hh"
#include "trace/reader.hh"
#include "trace/toolkit.hh"
#include "trace/writer.hh"

using namespace gnnmark;
using namespace gnnmark::trace;

namespace {

/** A small synthetic trace exercising every event kind. */
RecordedTrace
makeTrace()
{
    RecordedTrace trace;
    trace.header.workload = "SYNTH";
    trace.header.seed = 99;
    trace.header.scale = 0.5;
    trace.header.iterations = 3;
    trace.header.warmupIterations = 1;
    trace.header.iterationsPerEpoch = 24;
    trace.header.parameterBytes = 1.5e6;
    trace.header.losses = {1.5f, 1.25f, 1.125f};
    trace.header.config = GpuConfig::v100();
    trace.header.config.detailSampleLimit = 3;

    trace.events.emplace_back(
        TransferEvent{"features", 0x7f00dead0000ULL, 1 << 16, 0.33});
    trace.events.emplace_back(TraceMarker::TimersReset);
    for (int launch_idx = 0; launch_idx < 4; ++launch_idx) {
        LaunchEvent launch;
        launch.name = launch_idx % 2 == 0 ? "gemm_128" : "relu_4096";
        launch.opClass = launch_idx % 2 == 0 ? OpClass::Gemm
                                             : OpClass::ElementWise;
        launch.blocks = 16 + launch_idx;
        launch.warpsPerBlock = 4;
        launch.inputRanges = {{0x1000, 4096}};
        launch.outputRanges = {{0x9000, 2048}};
        for (int w = 0; w < 2; ++w) {
            WarpTrace wt;
            WarpTraceSink sink(wt, 128, 128);
            sink.fma(4 + launch_idx);
            sink.loadCoalesced(0x1000 + static_cast<uint64_t>(w) * 128,
                               4);
            sink.storeCoalesced(0x9000, 4);
            launch.warps.push_back(
                {static_cast<int64_t>(launch_idx * 64 + w), wt});
        }
        trace.events.emplace_back(std::move(launch));
        if (launch_idx == 1)
            trace.events.emplace_back(TraceMarker::IterationBegin);
    }
    return trace;
}

/** Kind of the IoError parseTrace throws on `trace`'s own bytes. */
IoError::Kind
parseKind(const RecordedTrace &trace)
{
    try {
        (void)parseTrace(serializeTrace(trace), "in-memory trace");
    } catch (const IoError &e) {
        return e.kind();
    }
    ADD_FAILURE() << "parseTrace accepted a trace the simulator cannot "
                     "replay";
    return IoError::Kind::OpenFailed;
}

/** Kind of the IoError parseTrace throws on a file of `header` and
 *  `payload`, framed and checksummed as serializeTrace() frames them,
 *  so the decoder, not the checksum, must catch what is wrong. */
IoError::Kind
frameKind(const ByteBuilder &header, const ByteBuilder &payload)
{
    ByteBuilder file;
    file.bytes(kTraceMagic, sizeof(kTraceMagic));
    file.u32(kTraceFormatVersion);
    file.u64(header.size());
    file.bytes(header.buffer().data(), header.size());
    file.u64(payload.size());
    file.bytes(payload.buffer().data(), payload.size());
    ByteBuilder summed;
    summed.bytes(header.buffer().data(), header.size());
    summed.bytes(payload.buffer().data(), payload.size());
    file.u64(fnv1a(summed.buffer().data(), summed.size()));
    try {
        (void)parseTrace(file.buffer(), "hand-built trace");
    } catch (const IoError &e) {
        return e.kind();
    }
    ADD_FAILURE() << "parseTrace accepted a payload that cannot hold what "
                     "it claims";
    return IoError::Kind::OpenFailed;
}

} // namespace

// A trace with a valid checksum can still record a configuration or a
// launch the simulator would assert on; decoding rejects it instead.
TEST(TraceDecode, UnbuildableL2IsCorrupt)
{
    RecordedTrace trace = makeTrace();
    trace.header.config.l2Assoc = 0;
    EXPECT_EQ(parseKind(trace), IoError::Kind::Corrupt);
}

TEST(TraceDecode, UnbuildableL0ICacheIsCorrupt)
{
    RecordedTrace trace = makeTrace();
    trace.header.config.l0IAssoc = 0;
    EXPECT_EQ(parseKind(trace), IoError::Kind::Corrupt);
}

TEST(TraceDecode, BlockWiderThanAnSmIsCorrupt)
{
    RecordedTrace trace = makeTrace();
    ASSERT_EQ(trace.header.config.maxWarpsPerSm, 64);
    std::get<LaunchEvent>(trace.events[2]).warpsPerBlock = 65;
    EXPECT_EQ(parseKind(trace), IoError::Kind::Corrupt);
}

// A recorded warp is never longer than the recording's trace cap
// (WarpTraceSink stops there); a longer one was once decoded whatever
// the cap, up to 2^26 ops from a few bytes of opcode runs.
TEST(TraceDecode, WarpLongerThanTheTraceCapIsCorrupt)
{
    RecordedTrace trace = makeTrace();
    size_t longest = 0;
    for (const TraceEvent &event : trace.events) {
        if (const auto *launch = std::get_if<LaunchEvent>(&event)) {
            for (const TracedWarp &warp : launch->warps)
                longest = std::max(longest, warp.trace.ops.size());
        }
    }
    trace.header.config.maxTraceInstrs = static_cast<int>(longest);
    EXPECT_NO_THROW(
        (void)parseTrace(serializeTrace(trace), "in-memory trace"));
    trace.header.config.maxTraceInstrs = static_cast<int>(longest) - 1;
    EXPECT_EQ(parseKind(trace), IoError::Kind::Corrupt);
}

TEST(TraceDecode, TraceCapBeyondTheConfigLimitIsCorrupt)
{
    RecordedTrace trace = makeTrace();
    trace.header.config.maxTraceInstrs = 65537;
    EXPECT_EQ(parseKind(trace), IoError::Kind::Corrupt);
}

TEST(TraceDecode, MemoryOpWiderThanAWarpIsCorrupt)
{
    // 32 lanes touch at most 64 lines; the line pool is sized by the
    // ops' line counts.
    for (const uint16_t lines : {64, 65}) {
        RecordedTrace trace = makeTrace();
        WarpTrace &wide = std::get<LaunchEvent>(trace.events[2])
                              .warps[0]
                              .trace;
        wide = WarpTrace{};
        wide.ops.push_back(TraceOp{InstrKind::Load, lines, 1, 0});
        for (uint64_t i = 0; i < lines; ++i)
            wide.lines.push_back(0x10000 + i * 4096);
        wide.recordedInstrs = 1;
        if (lines == 64) {
            EXPECT_NO_THROW(
                (void)parseTrace(serializeTrace(trace), "in-memory trace"));
        } else {
            EXPECT_EQ(parseKind(trace), IoError::Kind::Corrupt);
        }
    }
}

TEST(TraceDecode, WarpCountBeyondThePayloadIsCorrupt)
{
    const RecordedTrace trace = makeTrace();
    ByteBuilder header;
    encodeHeader(header, trace.header);
    LaunchEvent launch = std::get<LaunchEvent>(trace.events[2]);
    launch.warps.clear();
    ByteBuilder payload;
    payload.varint(1);
    StringTableWriter strings;
    encodeEvent(payload, strings, launch);
    // The warp count is a launch's last field: claim 2^24 warps, then
    // give the bytes of one empty warp.
    ASSERT_EQ(payload.buffer().back(), 0);
    payload.buffer().pop_back();
    payload.varint(1u << 24);
    for (int i = 0; i < 25; ++i)
        payload.u8(0);
    EXPECT_EQ(frameKind(header, payload), IoError::Kind::Corrupt);
}

TEST(TraceDecode, EventCountBeyondThePayloadIsCorrupt)
{
    ByteBuilder header;
    encodeHeader(header, makeTrace().header);
    ByteBuilder payload;
    payload.varint(1u << 20);
    StringTableWriter strings;
    encodeEvent(payload, strings, TraceMarker::IterationBegin);
    EXPECT_EQ(frameKind(header, payload), IoError::Kind::Corrupt);
}

class TraceFile : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        // One file per test: ctest -j runs these cases as concurrent
        // processes, and a shared path lets one's TearDown delete
        // another's input.
        path_ = ::testing::TempDir() + "gnnmark_trace_io_" +
                ::testing::UnitTest::GetInstance()
                    ->current_test_info()
                    ->name() +
                ".gnntrace";
        writeTraceFile(path_, makeTrace());
    }

    void TearDown() override { std::remove(path_.c_str()); }

    IoError::Kind
    readKind()
    {
        try {
            readTraceFile(path_);
        } catch (const IoError &e) {
            return e.kind();
        }
        ADD_FAILURE() << "readTraceFile accepted a malformed file";
        return IoError::Kind::OpenFailed;
    }

    std::string path_;
};

TEST_F(TraceFile, RoundTripsThroughDisk)
{
    const RecordedTrace ref = makeTrace();
    const RecordedTrace back = readTraceFile(path_);

    EXPECT_EQ(back.header.workload, "SYNTH");
    EXPECT_EQ(back.header.seed, 99u);
    EXPECT_DOUBLE_EQ(back.header.scale, 0.5);
    EXPECT_EQ(back.header.iterations, 3);
    EXPECT_EQ(back.header.warmupIterations, 1);
    EXPECT_EQ(back.header.iterationsPerEpoch, 24);
    EXPECT_DOUBLE_EQ(back.header.parameterBytes, 1.5e6);
    EXPECT_EQ(back.header.losses, ref.header.losses);
    EXPECT_EQ(back.header.config.detailSampleLimit, 3);
    ASSERT_EQ(back.events.size(), ref.events.size());

    // Serialization is canonical: an exact re-encode proves deep
    // equality of every event without a field-by-field comparator.
    EXPECT_EQ(serializeTrace(back), serializeTrace(ref));
}

TEST_F(TraceFile, StatsSeeTheSyntheticStream)
{
    const TraceStats stats = computeTraceStats(readTraceFile(path_));
    EXPECT_EQ(stats.launches, 4);
    EXPECT_EQ(stats.transfers, 1);
    EXPECT_EQ(stats.markers, 2);
    EXPECT_EQ(stats.tracedWarps, 8);
    EXPECT_EQ(
        stats.perClass[static_cast<size_t>(OpClass::Gemm)].launches, 2);
    EXPECT_EQ(stats.perClass[static_cast<size_t>(OpClass::ElementWise)]
                  .launches,
              2);
    EXPECT_GT(stats.uniqueLines, 0u);
}

TEST_F(TraceFile, EncodedBeatsNaiveDump)
{
    const RecordedTrace trace = readTraceFile(path_);
    EXPECT_LT(serializeTrace(trace).size(), naiveSizeBytes(trace));
}

TEST_F(TraceFile, TruncationIsShortRead)
{
    test::truncateToFraction(path_, 0.6);
    EXPECT_EQ(readKind(), IoError::Kind::ShortRead);
}

TEST_F(TraceFile, HeaderBitFlipIsCorrupt)
{
    test::flipByteAt(path_, 24); // inside the header section
    EXPECT_EQ(readKind(), IoError::Kind::Corrupt);
}

TEST_F(TraceFile, PayloadBitFlipIsCorrupt)
{
    test::flipByteAt(path_, -12); // inside the payload, pre-checksum
    EXPECT_EQ(readKind(), IoError::Kind::Corrupt);
}

TEST_F(TraceFile, WrongMagicIsBadMagic)
{
    test::flipByteAt(path_, 3);
    EXPECT_EQ(readKind(), IoError::Kind::BadMagic);
}

TEST_F(TraceFile, FutureVersionIsBadVersion)
{
    test::flipByteAt(path_, 8); // low byte of the version word
    EXPECT_EQ(readKind(), IoError::Kind::BadVersion);
}

TEST_F(TraceFile, TrailingGarbageIsTrailingBytes)
{
    test::appendGarbage(path_, 16);
    EXPECT_EQ(readKind(), IoError::Kind::TrailingBytes);
}

TEST_F(TraceFile, MissingFileIsOpenFailed)
{
    std::remove(path_.c_str());
    EXPECT_EQ(readKind(), IoError::Kind::OpenFailed);
}

TEST_F(TraceFile, EverySingleByteFlipIsCaught)
{
    // Exhaustive single-bit-flip sweep over the whole image: the
    // checksum (or a structural check before it) must reject every
    // one — a trace reader that silently accepts corruption would
    // poison downstream sweeps.
    const std::vector<uint8_t> good = readFileBytes(path_);
    for (size_t i = 0; i < good.size(); ++i) {
        std::vector<uint8_t> bad = good;
        bad[i] ^= 0x01;
        EXPECT_THROW((void)parseTrace(bad, "flipped"), IoError)
            << "byte " << i << " flip was accepted";
    }
}
