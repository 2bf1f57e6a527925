/** @file Tests for the SM warp pipeline model. */

#include <gtest/gtest.h>

#include "base/rng.hh"
#include "sim/cache_model.hh"
#include "sim/warp_pipeline.hh"

using namespace gnnmark;

namespace {

struct PipelineFixture : public ::testing::Test
{
    GpuConfig cfg = GpuConfig::v100();
    Rng rng{99};

    WaveResult
    run(const std::vector<WarpTrace> &warps, KernelDesc desc = {})
    {
        CacheModel l1(cfg.l1SizeBytes, cfg.l1Assoc, cfg.cacheLineBytes);
        CacheModel l2(cfg.l2SizeBytes, cfg.l2Assoc, cfg.cacheLineBytes);
        WarpPipeline pipe(cfg, l1, l2, rng);
        return pipe.run(warps, desc);
    }

    WarpTrace
    aluTrace(int n_fma)
    {
        WarpTrace t;
        WarpTraceSink sink(t, cfg.maxTraceInstrs, cfg.cacheLineBytes);
        sink.fma(n_fma);
        return t;
    }

    WarpTrace
    streamTrace(int n_loads, uint64_t base, uint64_t stride)
    {
        WarpTrace t;
        WarpTraceSink sink(t, cfg.maxTraceInstrs, cfg.cacheLineBytes);
        for (int i = 0; i < n_loads; ++i)
            sink.loadCoalesced(base + i * stride, 4);
        return t;
    }
};

} // namespace

TEST_F(PipelineFixture, EmptyWaveIsFree)
{
    WaveResult r = run({});
    EXPECT_EQ(r.cycles, 0);
    EXPECT_EQ(r.issued, 0);
}

TEST_F(PipelineFixture, SingleWarpAluBoundedByDependencies)
{
    WaveResult r = run({aluTrace(1000)});
    // One warp at ILP 2: roughly half the instructions wait the full
    // ALU latency; cold instruction fetches add a bounded extra.
    double cold_fetch =
        (4096.0 / cfg.cacheLineBytes) * cfg.ifetchColdCycles;
    EXPECT_GE(r.cycles, 1000);
    EXPECT_LE(r.cycles, 1000.0 * cfg.aluLatency + cold_fetch);
    EXPECT_DOUBLE_EQ(r.issued, 1000);
    EXPECT_DOUBLE_EQ(r.flops, 1000 * 64.0);
}

TEST_F(PipelineFixture, FpPortCapsThroughput)
{
    // Many independent warps of pure FMA: throughput is limited by
    // fp32PortsPerCycle, not issueWidth.
    std::vector<WarpTrace> warps;
    for (int w = 0; w < 32; ++w)
        warps.push_back(aluTrace(500));
    WaveResult r = run(warps);
    double min_cycles = 32.0 * 500.0 / cfg.fp32PortsPerCycle;
    EXPECT_GE(r.cycles, min_cycles * 0.95);
    // And with that many warps we should be close to the cap.
    EXPECT_LE(r.cycles, min_cycles * 1.6);
}

TEST_F(PipelineFixture, MoreWarpsHideLatency)
{
    WaveResult one = run({streamTrace(200, 0, 128)});
    std::vector<WarpTrace> many;
    for (int w = 0; w < 16; ++w)
        many.push_back(streamTrace(200, 0x100000 * (w + 1), 128));
    WaveResult sixteen = run(many);
    // 16x the work should take much less than 16x the time.
    EXPECT_LT(sixteen.cycles, one.cycles * 8);
}

TEST_F(PipelineFixture, ColdStreamMissesInL1)
{
    WaveResult r = run({streamTrace(500, 0, 128)});
    EXPECT_EQ(r.loads, 500);
    EXPECT_EQ(r.l1Hits, 0);
    EXPECT_EQ(r.l1Accesses, 500);
    EXPECT_GT(r.dramBytes, 0);
}

TEST_F(PipelineFixture, RepeatedLineHitsInL1)
{
    WaveResult r = run({streamTrace(500, 0, 0)}); // same line always
    EXPECT_EQ(r.l1Hits, 499);
}

TEST_F(PipelineFixture, MemoryStallsDominantForPointerChase)
{
    KernelDesc desc;
    desc.loadDepFraction = 1.0; // every load feeds the next instr
    WaveResult r = run({streamTrace(300, 0, 4096)}, desc);
    double mem = r.stallCycles[static_cast<size_t>(
        StallReason::MemoryDependency)];
    double exec = r.stallCycles[static_cast<size_t>(
        StallReason::ExecutionDependency)];
    EXPECT_GT(mem, 10 * std::max(1.0, exec));
}

TEST_F(PipelineFixture, ExecDependencyStallsForSerialAlu)
{
    KernelDesc desc;
    desc.aluIlp = 1.0; // fully serial chain
    WaveResult r = run({aluTrace(500)}, desc);
    double exec = r.stallCycles[static_cast<size_t>(
        StallReason::ExecutionDependency)];
    EXPECT_GT(exec, 500.0); // ~ (latency-1) per instruction
}

TEST_F(PipelineFixture, BarrierAttributesSynchronization)
{
    WarpTrace t;
    WarpTraceSink sink(t, cfg.maxTraceInstrs, cfg.cacheLineBytes);
    for (int i = 0; i < 50; ++i) {
        sink.fp32(1);
        sink.barrier();
    }
    WaveResult r = run({t});
    EXPECT_GT(r.stallCycles[static_cast<size_t>(
                  StallReason::Synchronization)], 0);
}

TEST_F(PipelineFixture, BigCodeCausesFetchStalls)
{
    KernelDesc small_code;
    small_code.codeBytes = 2048;
    KernelDesc big_code;
    big_code.codeBytes = 256 * 1024; // far beyond the 12KB L0I

    auto make = [&]() {
        std::vector<WarpTrace> warps;
        for (int w = 0; w < 8; ++w)
            warps.push_back(aluTrace(2000));
        return warps;
    };
    WaveResult small_r = run(make(), small_code);
    WaveResult big_r = run(make(), big_code);
    auto ifetch = [](const WaveResult &r) {
        return r.stallCycles[static_cast<size_t>(
            StallReason::InstructionFetch)];
    };
    EXPECT_GT(ifetch(big_r), 5 * std::max(1.0, ifetch(small_r)));
    // With a single warp the fetch latency cannot hide behind other
    // warps, so the slowdown is visible in cycles too.
    WaveResult lone_small = run({aluTrace(2000)}, small_code);
    WaveResult lone_big = run({aluTrace(2000)}, big_code);
    EXPECT_GT(lone_big.cycles, lone_small.cycles * 1.5);
}

TEST_F(PipelineFixture, DivergentLoadsCountedAndSlower)
{
    WarpTrace coalesced;
    {
        WarpTraceSink sink(coalesced, cfg.maxTraceInstrs,
                           cfg.cacheLineBytes);
        for (int i = 0; i < 200; ++i)
            sink.loadCoalesced(i * 128, 4);
    }
    WarpTrace divergent;
    {
        WarpTraceSink sink(divergent, cfg.maxTraceInstrs,
                           cfg.cacheLineBytes);
        uint64_t addrs[32];
        for (int i = 0; i < 200; ++i) {
            for (int l = 0; l < 32; ++l)
                addrs[l] = (i * 32 + l) * 4096;
            sink.loadGlobal(addrs, 32, 4);
        }
    }
    WaveResult rc = run({coalesced});
    WaveResult rd = run({divergent});
    EXPECT_EQ(rc.divergentLoads, 0);
    EXPECT_EQ(rd.divergentLoads, 200);
    EXPECT_GT(rd.cycles, rc.cycles);
    EXPECT_GT(rd.l2Accesses, rc.l2Accesses * 20);
}

TEST_F(PipelineFixture, ExtrapolationScalesTruncatedTraces)
{
    WarpTrace t;
    WarpTraceSink sink(t, /*cap=*/100, cfg.cacheLineBytes);
    sink.fma(1000); // only 100 recorded
    WaveResult r = run({t});
    EXPECT_DOUBLE_EQ(r.issued, 1000);
    // Cycles are extrapolated by ~10x relative to the recorded run.
    EXPECT_GE(r.cycles, 1000);
}

TEST_F(PipelineFixture, L2SharedAcrossRuns)
{
    CacheModel l1(cfg.l1SizeBytes, cfg.l1Assoc, cfg.cacheLineBytes);
    CacheModel l2(cfg.l2SizeBytes, cfg.l2Assoc, cfg.cacheLineBytes);
    KernelDesc desc;
    {
        WarpPipeline pipe(cfg, l1, l2, rng);
        WaveResult first = pipe.run({streamTrace(300, 0, 128)}, desc);
        EXPECT_EQ(first.l2Hits, 0);
    }
    {
        // Second kernel reading the same data: L2 is warm.
        l1.flush();
        WarpPipeline pipe(cfg, l1, l2, rng);
        WaveResult second = pipe.run({streamTrace(300, 0, 128)}, desc);
        EXPECT_EQ(second.l2Hits, 300);
    }
}

namespace {

/** A large and a one-line L2, each holding `line` or not. */
struct SplitCaches
{
    CacheModel l1Big;
    CacheModel l1Tiny;
    CacheModel l2Big;
    CacheModel l2Tiny;
};

SplitCaches
primedCaches(const GpuConfig &cfg, uint64_t hot, uint64_t other)
{
    SplitCaches c{
        CacheModel(cfg.l1SizeBytes, cfg.l1Assoc, cfg.cacheLineBytes),
        CacheModel(cfg.l1SizeBytes, cfg.l1Assoc, cfg.cacheLineBytes),
        CacheModel(cfg.l2SizeBytes, cfg.l2Assoc, cfg.cacheLineBytes),
        CacheModel(cfg.cacheLineBytes, 1, cfg.cacheLineBytes)};
    // Both L2s see `hot` then `other`: the one-line L2 keeps only
    // `other`, the large one both.
    for (CacheModel *l2 : {&c.l2Big, &c.l2Tiny}) {
        l2->access(hot);
        l2->access(other);
    }
    return c;
}

} // namespace

/**
 * A lockstep group of two members whose L2s differ: every load is
 * dependent, and the first one hits in the large L2 but misses in the
 * one-line L2, so the members' issue gaps differ and the loop splits.
 * Each member must still equal its solo run on identically primed
 * caches, RNG state included.
 */
TEST_F(PipelineFixture, GroupSplitsWhereGapsDifferAndMatchesSoloRuns)
{
    const uint64_t hot = 1 << 20;
    const uint64_t other = 1 << 24;
    std::vector<WarpTrace> warps(2);
    {
        WarpTraceSink sink(warps[0], cfg.maxTraceInstrs, cfg.cacheLineBytes);
        sink.int32(3);
        sink.loadCoalesced(hot, 4);
        sink.fma(6);
        sink.loadCoalesced(other + 4096, 4);
        sink.fma(4);
    }
    {
        WarpTraceSink sink(warps[1], cfg.maxTraceInstrs, cfg.cacheLineBytes);
        sink.fma(5);
        sink.loadCoalesced(other, 4);
        sink.sfu(2);
        sink.storeCoalesced(hot + 8192, 4);
    }
    KernelDesc desc;
    desc.loadDepFraction = 1.0; // every load's dependency draw is true

    SplitCaches group = primedCaches(cfg, hot, other);
    Rng group_rng(7);
    const std::vector<WaveResult> both =
        WarpPipeline(cfg,
                     {{&group.l1Big, &group.l2Big},
                      {&group.l1Tiny, &group.l2Tiny}},
                     group_rng)
            .runGroup({&warps[0], &warps[1]}, desc);
    ASSERT_EQ(both.size(), 2u);
    // The miss in the one-line L2 makes that member's wave longer.
    EXPECT_LT(both[0].cycles, both[1].cycles);
    EXPECT_LT(both[0].dramBytes, both[1].dramBytes);

    SplitCaches solo = primedCaches(cfg, hot, other);
    Rng big_rng(7);
    const WaveResult big =
        WarpPipeline(cfg, solo.l1Big, solo.l2Big, big_rng).run(warps, desc);
    Rng tiny_rng(7);
    const WaveResult tiny =
        WarpPipeline(cfg, solo.l1Tiny, solo.l2Tiny, tiny_rng)
            .run(warps, desc);

    for (const auto &[got, want] :
         {std::pair{&both[0], &big}, std::pair{&both[1], &tiny}}) {
        EXPECT_TRUE(static_cast<const SimCounters &>(*got) == *want);
        EXPECT_EQ(got->cycles, want->cycles);
        EXPECT_EQ(got->issued, want->issued);
    }
    EXPECT_TRUE(group_rng.state() == big_rng.state());
    EXPECT_TRUE(group_rng.state() == tiny_rng.state());
}
