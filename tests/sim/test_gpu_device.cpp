/** @file Tests for the GpuDevice launch/sampling/transfer machinery. */

#include <gtest/gtest.h>

#include <vector>

#include "sim/gpu_device.hh"

using namespace gnnmark;

namespace {

/** Simple observer that collects everything. */
struct Collector : public KernelObserver
{
    std::vector<KernelRecord> kernels;
    std::vector<TransferRecord> transfers;
    void onKernel(const KernelRecord &r) override { kernels.push_back(r); }
    void onTransfer(const TransferRecord &r) override
    {
        transfers.push_back(r);
    }
};

KernelDesc
simpleKernel(const std::string &name, int64_t blocks, int fma_per_warp)
{
    KernelDesc desc;
    desc.name = name;
    desc.opClass = OpClass::ElementWise;
    desc.blocks = blocks;
    desc.warpsPerBlock = 4;
    desc.trace = [fma_per_warp](int64_t, WarpTraceSink &sink) {
        sink.int32(2);
        sink.fma(fma_per_warp);
        sink.loadCoalesced(0x1000, 4);
    };
    return desc;
}

} // namespace

TEST(GpuDevice, LaunchProducesTimedRecord)
{
    GpuDevice dev;
    KernelRecord r = dev.launch(simpleKernel("k", 16, 100));
    EXPECT_GT(r.timeSec, 0);
    EXPECT_GT(r.cycles, 0);
    EXPECT_TRUE(r.detailed);
    EXPECT_EQ(r.invocation, 0);
    EXPECT_EQ(r.opClass, OpClass::ElementWise);
    EXPECT_EQ(r.activeSms, 16);
}

TEST(GpuDevice, InstructionCountsScaleWithGrid)
{
    GpuDevice dev;
    KernelRecord small = dev.launch(simpleKernel("a", 80, 100));
    KernelRecord big = dev.launch(simpleKernel("b", 800, 100));
    EXPECT_NEAR(big.fp32Instrs / small.fp32Instrs, 10.0, 0.5);
    EXPECT_NEAR(big.flops / small.flops, 10.0, 0.5);
}

TEST(GpuDevice, MoreWavesTakeLonger)
{
    GpuDevice dev;
    KernelRecord one_wave = dev.launch(simpleKernel("w1", 80, 2000));
    // 80 SMs x 16 resident blocks exhausted -> multiple waves.
    KernelRecord many_waves =
        dev.launch(simpleKernel("w2", 80 * 40, 2000));
    EXPECT_GT(many_waves.timeSec, 2 * one_wave.timeSec);
}

TEST(GpuDevice, SamplingCacheKicksIn)
{
    GpuConfig cfg = GpuConfig::v100();
    cfg.detailSampleLimit = 3;
    GpuDevice dev(cfg);
    for (int i = 0; i < 3; ++i)
        EXPECT_TRUE(dev.launch(simpleKernel("same", 32, 50)).detailed);
    KernelRecord replay = dev.launch(simpleKernel("same", 32, 50));
    EXPECT_FALSE(replay.detailed);
    EXPECT_EQ(replay.invocation, 3);
    // Replayed metrics match the detailed averages.
    KernelRecord fresh = dev.launch(simpleKernel("other", 32, 50));
    EXPECT_NEAR(replay.fp32Instrs, fresh.fp32Instrs,
                fresh.fp32Instrs * 0.05);
}

TEST(GpuDevice, ReplayScalesToNewGeometry)
{
    GpuConfig cfg = GpuConfig::v100();
    cfg.detailSampleLimit = 1;
    GpuDevice dev(cfg);
    dev.launch(simpleKernel("k", 100, 50));
    KernelRecord scaled = dev.launch(simpleKernel("k", 200, 50));
    EXPECT_FALSE(scaled.detailed);
    KernelRecord base = dev.launch(simpleKernel("base", 200, 50));
    EXPECT_NEAR(scaled.fp32Instrs, base.fp32Instrs,
                base.fp32Instrs * 0.05);
}

TEST(GpuDevice, ObserverReceivesEverything)
{
    GpuDevice dev;
    Collector obs;
    dev.addObserver(&obs);
    dev.launch(simpleKernel("k", 8, 10));
    std::vector<float> data = {0.0f, 1.0f, 0.0f, 2.0f};
    dev.copyHostToDevice(data.data(), data.size(), 0x1000, "input");
    ASSERT_EQ(obs.kernels.size(), 1u);
    ASSERT_EQ(obs.transfers.size(), 1u);
    EXPECT_EQ(obs.transfers[0].tag, "input");
}

TEST(GpuDevice, TransferSparsityMeasured)
{
    GpuDevice dev;
    std::vector<float> data(100, 0.0f);
    for (int i = 0; i < 25; ++i)
        data[i] = 1.0f;
    TransferRecord r =
        dev.copyHostToDevice(data.data(), data.size(), 0x1000, "x");
    EXPECT_NEAR(r.zeroFraction, 0.75, 1e-9);
    EXPECT_DOUBLE_EQ(r.bytes, 400.0);
    EXPECT_GT(r.timeSec, 0);
}

TEST(GpuDevice, IntTransferSparsity)
{
    GpuDevice dev;
    std::vector<int32_t> idx = {0, 1, 0, 2, 0, 3};
    TransferRecord r = dev.copyHostToDevice(idx.data(), idx.size(), 0x1000, "i");
    EXPECT_NEAR(r.zeroFraction, 0.5, 1e-9);
}

TEST(GpuDevice, CompressionAblationSpeedsSparseTransfers)
{
    std::vector<float> sparse(1 << 20, 0.0f);
    GpuDevice plain;
    GpuConfig cfg = GpuConfig::v100();
    cfg.h2dCompression = true;
    GpuDevice compressed(cfg);
    double t_plain =
        plain.copyHostToDevice(sparse.data(), sparse.size(), 0x1000, "x")
            .timeSec;
    double t_comp = compressed
                        .copyHostToDevice(sparse.data(), sparse.size(),
                                          0x1000, "x")
                        .timeSec;
    EXPECT_LT(t_comp, t_plain * 0.2);
}

TEST(GpuDevice, TimersAccumulateAndReset)
{
    GpuDevice dev;
    dev.launch(simpleKernel("k", 8, 10));
    std::vector<float> data(64, 1.0f);
    dev.copyHostToDevice(data.data(), data.size(), 0x1000, "x");
    EXPECT_GT(dev.kernelTimeSec(), 0);
    EXPECT_GT(dev.transferTimeSec(), 0);
    EXPECT_GT(dev.wallTimeSec(),
              dev.kernelTimeSec() + dev.transferTimeSec());
    EXPECT_EQ(dev.kernelCount(), 1);
    dev.resetTimers();
    EXPECT_EQ(dev.kernelTimeSec(), 0);
    EXPECT_EQ(dev.kernelCount(), 0);
}

TEST(GpuDevice, BandwidthBoundKernelThrottled)
{
    GpuDevice dev;
    // Huge streaming kernel: every warp reads fresh lines.
    KernelDesc desc;
    desc.name = "stream";
    desc.blocks = 8000;
    desc.warpsPerBlock = 8;
    desc.loadDepFraction = 0.1;
    desc.trace = [](int64_t warp_id, WarpTraceSink &sink) {
        for (int i = 0; i < 64; ++i) {
            sink.loadCoalesced(
                static_cast<uint64_t>(warp_id) * 8192 + i * 128, 4);
        }
    };
    KernelRecord r = dev.launch(desc);
    double bw_time = r.dramBytes / dev.config().dramBandwidth;
    EXPECT_GE(r.timeSec, bw_time * 0.99);
    EXPECT_GT(r.stallCycles[static_cast<size_t>(
                  StallReason::MemoryThrottle)], 0);
}

TEST(GpuDevice, FreshDeviceDeterministic)
{
    auto run = [](uint64_t seed) {
        GpuDevice dev(GpuConfig::v100(), seed);
        return dev.launch(simpleKernel("k", 64, 300)).timeSec;
    };
    EXPECT_DOUBLE_EQ(run(7), run(7));
}

TEST(GpuDeviceDeath, InvalidGeometryPanics)
{
    GpuDevice dev;
    KernelDesc desc = simpleKernel("k", 0, 1);
    EXPECT_DEATH(dev.launch(desc), "no blocks");
}

TEST(GpuConfig, ValidateAcceptsPresetsAndRejectsImpossibleGeometry)
{
    EXPECT_EQ(validateConfig(GpuConfig::v100()), "");
    EXPECT_EQ(validateConfig(GpuConfig::a100()), "");

    // Each of these would abort in a GpuDevice or CacheModel assertion.
    GpuConfig cfg;
    cfg.l2SizeBytes = 3460300; // 3.3 MiB: not a multiple of 128 B x 16
    EXPECT_NE(validateConfig(cfg).find("L2 of 3460300 B"),
              std::string::npos);
    cfg = GpuConfig{};
    cfg.l1SizeBytes = 0;
    EXPECT_NE(validateConfig(cfg).find("L1 of 0 B"), std::string::npos);
    cfg = GpuConfig{};
    cfg.l2SizeBytes = 2 * GiB; // over the 1 GiB cap
    EXPECT_NE(validateConfig(cfg).find("L2 of"), std::string::npos);
    cfg = GpuConfig{};
    cfg.numSms = 0;
    EXPECT_NE(validateConfig(cfg).find("SMs"), std::string::npos);
    cfg = GpuConfig{};
    cfg.cacheLineBytes = 96;
    EXPECT_NE(validateConfig(cfg).find("96 B lines"), std::string::npos);
    cfg = GpuConfig{};
    cfg.maxWarpsPerSm = 0;
    EXPECT_NE(validateConfig(cfg).find("resident warp"), std::string::npos);
    cfg = GpuConfig{};
    cfg.maxBlocksPerSm = 0;
    EXPECT_NE(validateConfig(cfg).find("resident warp"), std::string::npos);
    cfg = GpuConfig{};
    cfg.l0IAssoc = 0;
    EXPECT_NE(validateConfig(cfg).find("L0I of"), std::string::npos);
    cfg = GpuConfig{};
    cfg.l1ISizeBytes = 640; // not a multiple of 128 B x 4 ways
    EXPECT_NE(validateConfig(cfg).find("L1I of 640 B, 4-way"),
              std::string::npos);
}

TEST(GpuConfig, ValidateBoundsTheRecordedTraceLength)
{
    // The trace decoder sizes a warp's op list by this field, so a
    // recorded config may not claim an arbitrary length.
    GpuConfig cfg;
    for (const int ok : {1, 2048, 65536}) {
        cfg.maxTraceInstrs = ok;
        EXPECT_EQ(validateConfig(cfg), "") << ok;
    }
    for (const int bad : {0, -1, 65537}) {
        cfg.maxTraceInstrs = bad;
        EXPECT_NE(validateConfig(cfg).find("recorded instructions per warp"),
                  std::string::npos)
            << bad;
    }
}
