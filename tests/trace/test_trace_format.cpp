/** @file Codec-level tests for the binary trace format: varint edge
 *  cases, per-structure round trips, and string-table interning. */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <limits>
#include <vector>

#include "base/io.hh"
#include "sim/warp_trace.hh"
#include "trace/format.hh"

using namespace gnnmark;
using namespace gnnmark::trace;

namespace {

ByteCursor
cursorOver(const ByteBuilder &b)
{
    return ByteCursor(b.buffer().data(), b.size(), "test image");
}

/** Build a realistic warp trace through the production sink. */
WarpTrace
makeWarpTrace(uint64_t base, int cap = 64)
{
    WarpTrace trace;
    WarpTraceSink sink(trace, cap, 128);
    sink.fma(3);
    sink.loadCoalesced(base, 4);
    sink.int32(2);
    // A divergent gather: every lane on its own line.
    uint64_t addrs[32];
    for (int lane = 0; lane < 32; ++lane)
        addrs[lane] = base + 4096 + static_cast<uint64_t>(lane) * 512;
    sink.loadGlobal(addrs, 32, 4);
    sink.sharedStore();
    sink.barrier();
    sink.storeCoalesced(base + 65536, 4);
    sink.sfu(1);
    sink.scaleRemainder(2.5);
    return trace;
}

/** Kind of the IoError `decode` throws; a test failure if none. */
template <typename Decode>
IoError::Kind
thrownKind(Decode decode)
{
    try {
        decode();
    } catch (const IoError &e) {
        return e.kind();
    }
    ADD_FAILURE() << "decoded an image that cannot hold what it claims";
    return IoError::Kind::OpenFailed;
}

} // namespace

TEST(TraceVarint, EdgeValuesRoundTrip)
{
    const std::vector<uint64_t> values = {
        0,   1,   127, 128, 129, 16383, 16384, 1ULL << 32,
        (1ULL << 63) - 1, std::numeric_limits<uint64_t>::max()};
    ByteBuilder b;
    for (uint64_t v : values)
        b.varint(v);
    ByteCursor c = cursorOver(b);
    for (uint64_t v : values)
        EXPECT_EQ(c.varint(), v);
    EXPECT_TRUE(c.exhausted());
}

TEST(TraceVarint, SignedZigzagRoundTrip)
{
    const std::vector<int64_t> values = {
        0, -1, 1, -64, 64, -65, 12345, -12345,
        std::numeric_limits<int64_t>::min(),
        std::numeric_limits<int64_t>::max()};
    ByteBuilder b;
    for (int64_t v : values)
        b.svarint(v);
    ByteCursor c = cursorOver(b);
    for (int64_t v : values)
        EXPECT_EQ(c.svarint(), v);
    EXPECT_TRUE(c.exhausted());
}

TEST(TraceVarint, SmallValuesStaySmall)
{
    ByteBuilder b;
    b.varint(127);
    EXPECT_EQ(b.size(), 1u);
    b.varint(128);
    EXPECT_EQ(b.size(), 3u);
}

TEST(TraceVarint, TruncatedVarintIsShortRead)
{
    ByteBuilder b;
    b.u8(0x80); // continuation bit set, then nothing
    ByteCursor c = cursorOver(b);
    try {
        c.varint();
        FAIL() << "accepted a truncated varint";
    } catch (const IoError &e) {
        EXPECT_EQ(e.kind(), IoError::Kind::ShortRead);
    }
}

TEST(TraceFloat, DoublesAreBitExact)
{
    const std::vector<double> values = {0.0, -0.0, 1.0 / 3.0, 1e300,
                                        -4.9e-324, 3.14159};
    ByteBuilder b;
    for (double v : values)
        b.f64(v);
    ByteCursor c = cursorOver(b);
    for (double v : values) {
        double got = c.f64();
        EXPECT_EQ(std::memcmp(&got, &v, sizeof(v)), 0);
    }
}

TEST(TraceFormat, GpuConfigRoundTripsEveryField)
{
    GpuConfig cfg = GpuConfig::a100();
    cfg.l1BypassIrregular = true;
    cfg.h2dCompression = true;
    cfg.detailSampleLimit = 11;
    cfg.aluIlp = 3.25;
    ByteBuilder b;
    encodeGpuConfig(b, cfg);
    ByteCursor c = cursorOver(b);
    const GpuConfig back = decodeGpuConfig(c);
    EXPECT_TRUE(c.exhausted());
    // Structural equality via the codec itself: re-encode and compare.
    ByteBuilder b2;
    encodeGpuConfig(b2, back);
    EXPECT_EQ(b.buffer(), b2.buffer());
    EXPECT_EQ(back.numSms, cfg.numSms);
    EXPECT_EQ(back.l2SizeBytes, cfg.l2SizeBytes);
    EXPECT_EQ(back.detailSampleLimit, 11);
    EXPECT_TRUE(back.l1BypassIrregular);
    EXPECT_DOUBLE_EQ(back.aluIlp, 3.25);
}

TEST(TraceFormat, RangesDeltaCodecRoundTrips)
{
    const std::vector<std::pair<uint64_t, uint64_t>> ranges = {
        {0x7f0000001000ULL, 4096},
        {0x7f0000002000ULL, 128},   // forward delta
        {0x7e0000000000ULL, 1 << 20}, // backward delta
        {0, 1},
    };
    ByteBuilder b;
    encodeRanges(b, ranges);
    ByteCursor c = cursorOver(b);
    EXPECT_EQ(decodeRanges(c), ranges);
    EXPECT_TRUE(c.exhausted());

    ByteBuilder empty;
    encodeRanges(empty, {});
    ByteCursor ce = cursorOver(empty);
    EXPECT_TRUE(decodeRanges(ce).empty());
}

// A count the rest of the image cannot hold is refused before anything
// is reserved for it (a count once reserved up to 2^24 elements).
TEST(TraceFormat, RangeCountBeyondTheInputIsCorrupt)
{
    ByteBuilder b;
    b.varint(1u << 24);
    b.svarint(0);
    b.varint(64);
    ByteCursor c = cursorOver(b);
    EXPECT_EQ(thrownKind([&] { (void)decodeRanges(c); }),
              IoError::Kind::Corrupt);
}

TEST(TraceFormat, LossCountBeyondTheHeaderIsCorrupt)
{
    // The loss list sits just before the config: keep what precedes
    // its (empty) count, then claim 2^24 losses.
    TraceHeader header;
    header.workload = "DGCN";
    ByteBuilder full;
    encodeHeader(full, header);
    ByteBuilder config;
    encodeGpuConfig(config, header.config);
    const size_t prefix = full.size() - config.size() - 1;
    ASSERT_EQ(full.buffer()[prefix], 0);

    ByteBuilder b;
    b.bytes(full.buffer().data(), prefix);
    b.varint(1u << 24);
    b.bytes(config.buffer().data(), config.size());
    ByteCursor c = cursorOver(b);
    EXPECT_EQ(thrownKind([&] { (void)decodeHeader(c); }),
              IoError::Kind::Corrupt);
}

TEST(TraceFormat, WarpTraceRoundTripsExactly)
{
    const WarpTrace trace = makeWarpTrace(0x7f1234560000ULL);
    ASSERT_GT(trace.ops.size(), 0u);
    ASSERT_GT(trace.lines.size(), 0u);

    ByteBuilder b;
    encodeWarpTrace(b, trace);
    ByteCursor c = cursorOver(b);
    const WarpTrace back = decodeWarpTrace(c, trace.ops.size());
    EXPECT_TRUE(c.exhausted());

    EXPECT_EQ(back.recordedInstrs, trace.recordedInstrs);
    EXPECT_EQ(back.lines, trace.lines);
    EXPECT_EQ(back.counts.fp32, trace.counts.fp32);
    EXPECT_EQ(back.counts.int32, trace.counts.int32);
    EXPECT_EQ(back.counts.misc, trace.counts.misc);
    EXPECT_EQ(back.counts.loads, trace.counts.loads);
    EXPECT_EQ(back.counts.stores, trace.counts.stores);
    EXPECT_DOUBLE_EQ(back.counts.flops, trace.counts.flops);
    EXPECT_DOUBLE_EQ(back.counts.intOps, trace.counts.intOps);
    ASSERT_EQ(back.ops.size(), trace.ops.size());
    for (size_t i = 0; i < trace.ops.size(); ++i) {
        EXPECT_EQ(back.ops[i].kind, trace.ops[i].kind) << i;
        EXPECT_EQ(back.ops[i].lineCount, trace.ops[i].lineCount) << i;
        EXPECT_EQ(back.ops[i].minLines, trace.ops[i].minLines) << i;
        EXPECT_EQ(back.ops[i].lineBegin, trace.ops[i].lineBegin) << i;
    }
}

TEST(TraceFormat, CoalescedStreamsCompressWell)
{
    // A long perfectly-strided stream: the line pool must collapse to
    // (delta, run) pairs, far below 8 bytes/line.
    WarpTrace trace;
    WarpTraceSink sink(trace, 4096, 128);
    for (int i = 0; i < 1000; ++i)
        sink.loadCoalesced(0x10000000ULL + static_cast<uint64_t>(i) * 128,
                           4, 32);
    ByteBuilder b;
    encodeWarpTrace(b, trace);
    const size_t naive = trace.lines.size() * sizeof(uint64_t) +
                         trace.ops.size() * sizeof(TraceOp);
    EXPECT_LT(b.size() * 10, naive)
        << "stride RLE should beat raw structs 10x on coalesced "
           "streams";
}

TEST(TraceFormat, StringTableInternsRepeats)
{
    StringTableWriter w;
    ByteBuilder b;
    const std::string name = "a_rather_long_kernel_name_indeed";
    w.put(b, name);
    const size_t first = b.size();
    for (int i = 0; i < 9; ++i)
        w.put(b, name);
    EXPECT_LT(b.size() - first, first) << "repeats must not re-emit";

    StringTableReader r;
    ByteCursor c = cursorOver(b);
    for (int i = 0; i < 10; ++i)
        EXPECT_EQ(r.get(c), name);
    EXPECT_TRUE(c.exhausted());
}

TEST(TraceFormat, EventCodecRoundTripsAllKinds)
{
    LaunchEvent launch;
    launch.name = "spmm_csr";
    launch.opClass = OpClass::SpMM;
    launch.blocks = 420;
    launch.warpsPerBlock = 8;
    launch.codeBytes = 9000;
    launch.aluIlp = 1.75;
    launch.loadDepFraction = 0.8;
    launch.irregular = true;
    launch.outputRanges = {{0x1000, 512}};
    launch.inputRanges = {{0x8000, 4096}, {0x2000, 64}};
    launch.warps.push_back({7, makeWarpTrace(0x40000)});
    launch.warps.push_back({2048, makeWarpTrace(0x90000)});

    const TransferEvent transfer{"features", 0xdeadbeef000ULL, 1 << 20,
                                 0.42};

    StringTableWriter w;
    ByteBuilder b;
    encodeEvent(b, w, TraceEvent(launch));
    encodeEvent(b, w, TraceEvent(transfer));
    encodeEvent(b, w, TraceEvent(TraceMarker::IterationBegin));

    StringTableReader r;
    ByteCursor c = cursorOver(b);
    constexpr uint64_t kCap = 64; // makeWarpTrace's default cap

    const TraceEvent e1 = decodeEvent(c, r, kCap);
    const auto *k = std::get_if<LaunchEvent>(&e1);
    ASSERT_NE(k, nullptr);
    EXPECT_EQ(k->name, launch.name);
    EXPECT_EQ(k->opClass, launch.opClass);
    EXPECT_EQ(k->blocks, launch.blocks);
    EXPECT_EQ(k->warpsPerBlock, launch.warpsPerBlock);
    EXPECT_EQ(k->codeBytes, launch.codeBytes);
    EXPECT_DOUBLE_EQ(k->aluIlp, launch.aluIlp);
    EXPECT_DOUBLE_EQ(k->loadDepFraction, launch.loadDepFraction);
    EXPECT_EQ(k->irregular, launch.irregular);
    EXPECT_EQ(k->outputRanges, launch.outputRanges);
    EXPECT_EQ(k->inputRanges, launch.inputRanges);
    ASSERT_EQ(k->warps.size(), 2u);
    EXPECT_EQ(k->warps[0].warpId, 7);
    EXPECT_EQ(k->warps[1].warpId, 2048);
    EXPECT_EQ(k->warps[1].trace.lines, launch.warps[1].trace.lines);

    const TraceEvent e2 = decodeEvent(c, r, kCap);
    const auto *t = std::get_if<TransferEvent>(&e2);
    ASSERT_NE(t, nullptr);
    EXPECT_EQ(t->tag, transfer.tag);
    EXPECT_EQ(t->addr, transfer.addr);
    EXPECT_EQ(t->bytes, transfer.bytes);
    EXPECT_DOUBLE_EQ(t->zeroFraction, transfer.zeroFraction);

    const TraceEvent e3 = decodeEvent(c, r, kCap);
    const auto *m = std::get_if<TraceMarker>(&e3);
    ASSERT_NE(m, nullptr);
    EXPECT_EQ(*m, TraceMarker::IterationBegin);
    EXPECT_TRUE(c.exhausted());
}

TEST(TraceFormat, CorruptOpcodeKindIsTypedError)
{
    WarpTrace trace = makeWarpTrace(0x1000);
    ByteBuilder b;
    encodeWarpTrace(b, trace);
    // First byte is the fp32 count varint... find and smash a kind
    // byte by brute force: decoding any single-byte corruption must
    // either round-trip to a valid trace or throw IoError — never
    // assert or crash.
    for (size_t i = 0; i < b.size(); ++i) {
        std::vector<uint8_t> bytes = b.buffer();
        bytes[i] ^= 0xff;
        ByteCursor c(bytes.data(), bytes.size(), "fuzzed warp");
        try {
            (void)decodeWarpTrace(c, trace.ops.size());
        } catch (const IoError &) {
            // expected for most flips
        }
    }
    SUCCEED();
}
