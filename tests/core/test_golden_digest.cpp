/** @file Bitwise digest gate. Each case trains one suite workload at
 *  the golden gates' settings (scale 0.2, two measured iterations) and
 *  folds the bit pattern of every kernel record, transfer record and
 *  loss into one FNV-1a 64 hash. The golden gates print 12 significant
 *  digits; this gate sees the last bit of every figure.
 *
 *  The simulated address stream depends on what the process mapped
 *  before, so a digest is only defined for a fresh process: ctest runs
 *  each case in its own process, and a case that finds the device
 *  address space already used skips. Regenerate the constants together
 *  with bench/baselines/golden_*.jsonl (see that directory's README).
 *
 *  The replay case pins trace replay the same way: a recorded DGCN run
 *  replayed on its own config must hash like the recording, and
 *  replays at a 4 MiB L2 (2,048 sets, the power-of-two set path the
 *  default 3,072-set L2 never takes) and a 64 KiB L1 must hash to
 *  committed constants. */

#include <gtest/gtest.h>

#include <bit>
#include <cinttypes>
#include <string>

#include "base/allocator.hh"
#include "base/string_utils.hh"
#include "core/characterization.hh"
#include "core/trace_capture.hh"
#include "trace/reader.hh"
#include "trace/replayer.hh"
#include "trace/writer.hh"

using namespace gnnmark;

namespace {

/** FNV-1a 64 over the bit patterns of everything a run emits. */
class Digest : public KernelObserver
{
  public:
    void
    onKernel(const KernelRecord &r) override
    {
        text(r.name);
        word(static_cast<uint64_t>(r.opClass));
        word(static_cast<uint64_t>(r.invocation));
        word(r.detailed ? 1 : 0);
        word(static_cast<uint64_t>(r.activeSms));
        for (double v :
             {r.timeSec, r.cycles, r.ipc, r.fp32Instrs, r.int32Instrs,
              r.memInstrs, r.miscInstrs, r.flops, r.intOps, r.loads,
              r.divergentLoads, r.l1Accesses, r.l1Hits, r.l2Accesses,
              r.l2Hits, r.dramBytes})
            word(std::bit_cast<uint64_t>(v));
        for (double v : r.stallCycles)
            word(std::bit_cast<uint64_t>(v));
    }

    void
    onTransfer(const TransferRecord &r) override
    {
        text(r.tag);
        for (double v : {r.bytes, r.zeroFraction, r.timeSec})
            word(std::bit_cast<uint64_t>(v));
    }

    void loss(float v) { word(std::bit_cast<uint32_t>(v)); }

    uint64_t value() const { return hash_; }

  private:
    void
    byte(uint8_t b)
    {
        hash_ ^= b;
        hash_ *= 0x100000001b3ull;
    }

    void
    word(uint64_t w)
    {
        for (int i = 0; i < 8; ++i)
            byte(static_cast<uint8_t>(w >> (8 * i)));
    }

    void
    text(const std::string &s)
    {
        word(s.size());
        for (char c : s)
            byte(static_cast<uint8_t>(c));
    }

    uint64_t hash_ = 0xcbf29ce484222325ull;
};

/** The golden gates' settings: scale 0.2, two measured iterations. */
RunOptions
goldenOptions(KernelObserver *observer)
{
    RunOptions opt;
    opt.scale = 0.2;
    opt.iterations = 2;
    opt.extraObserver = observer;
    return opt;
}

bool
freshAddressSpace()
{
    return DeviceAddrSpace::instance().stats().requests == 0;
}

constexpr const char *kUsedAddressSpace =
    "this process already mapped device addresses, so the address "
    "stream differs from a fresh run's; run one case per process "
    "(ctest does)";

std::string
hex(uint64_t v)
{
    return strfmt("0x%016" PRIx64, v);
}

void
expectDigest(const std::string &workload, uint64_t expected)
{
    if (!freshAddressSpace())
        GTEST_SKIP() << kUsedAddressSpace;
    Digest digest;
    const RunOptions opt = goldenOptions(&digest);
    const WorkloadProfile profile =
        CharacterizationRunner(opt).run(workload);
    for (float v : profile.losses)
        digest.loss(v);
    EXPECT_EQ(digest.value(), expected)
        << workload << " computed digest " << hex(digest.value());
}

/** Digest of every record a replay of `trace` on `config` emits. */
uint64_t
replayDigest(const trace::RecordedTrace &trace, const GpuConfig &config)
{
    Digest digest;
    (void)trace::replayTrace(trace, config, {&digest});
    return digest.value();
}

} // namespace

TEST(GoldenDigest, PSAGE_MVL)
{
    expectDigest("PSAGE-MVL", 0x98f99e55b7cccbfdull);
}

TEST(GoldenDigest, PSAGE_NWP)
{
    expectDigest("PSAGE-NWP", 0xe206adc8e9ccbfc3ull);
}

TEST(GoldenDigest, STGCN)
{
    expectDigest("STGCN", 0x3665fd2b5a8cf9cdull);
}

TEST(GoldenDigest, DGCN)
{
    expectDigest("DGCN", 0x93670c701eacaf07ull);
}

TEST(GoldenDigest, GW)
{
    expectDigest("GW", 0x2b3e24c0c022b988ull);
}

TEST(GoldenDigest, KGNNL)
{
    expectDigest("KGNNL", 0xba6d0ec8bc32937cull);
}

TEST(GoldenDigest, KGNNH)
{
    expectDigest("KGNNH", 0xecf71b4dd558acc8ull);
}

TEST(GoldenDigest, ARGA)
{
    expectDigest("ARGA", 0x2baca019eeec81f3ull);
}

TEST(GoldenDigest, TLSTM)
{
    expectDigest("TLSTM", 0x6658f203510f4210ull);
}

TEST(GoldenDigest, DGCN_Replay)
{
    if (!freshAddressSpace())
        GTEST_SKIP() << kUsedAddressSpace;
    Digest recording;
    const trace::RecordedTrace recorded =
        recordWorkloadTrace("DGCN", goldenOptions(&recording));
    const trace::RecordedTrace trace = trace::parseTrace(
        trace::serializeTrace(recorded), "in-memory DGCN trace");
    EXPECT_EQ(recording.value(), 0x4e56c2fdf19c3265ull)
        << "recording computed digest " << hex(recording.value());

    const GpuConfig base = trace.header.config;
    const uint64_t same = replayDigest(trace, base);
    EXPECT_EQ(same, recording.value())
        << "replay on the recording config computed digest " << hex(same);

    GpuConfig l2 = base;
    l2.l2SizeBytes = 4 * MiB;
    const uint64_t at_l2 = replayDigest(trace, l2);
    EXPECT_EQ(at_l2, 0xfedc33d5c833a0edull)
        << "replay at L2 = 4 MiB computed digest " << hex(at_l2);

    GpuConfig l1 = base;
    l1.l1SizeBytes = 64 * KiB;
    const uint64_t at_l1 = replayDigest(trace, l1);
    EXPECT_EQ(at_l1, 0x5df6dcead762447eull)
        << "replay at L1 = 64 KiB computed digest " << hex(at_l1);
}
