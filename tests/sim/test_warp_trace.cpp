/** @file Tests for warp trace recording and coalescing. */

#include <gtest/gtest.h>

#include "sim/warp_trace.hh"

using namespace gnnmark;

namespace {

WarpTraceSink
makeSink(WarpTrace &t, int cap = 1024)
{
    return WarpTraceSink(t, cap, 128);
}

} // namespace

TEST(WarpTrace, AluCountsAndFlops)
{
    WarpTrace t;
    auto sink = makeSink(t);
    sink.fp32(2);
    sink.fma(3);
    sink.sfu(1);
    sink.int32(4);
    sink.misc(1);
    EXPECT_EQ(t.counts.fp32, 6u); // fp32 + fma + sfu
    EXPECT_EQ(t.counts.int32, 4u);
    EXPECT_EQ(t.counts.misc, 1u);
    // flops: 2*32 + 3*64 + 1*32
    EXPECT_DOUBLE_EQ(t.counts.flops, 64 + 192 + 32);
    EXPECT_DOUBLE_EQ(t.counts.intOps, 4 * 32);
}

TEST(WarpTrace, CoalescedLoadIsOneLine)
{
    WarpTrace t;
    auto sink = makeSink(t);
    sink.loadCoalesced(0, 4); // 32 lanes * 4B = 128B aligned
    ASSERT_FALSE(t.ops.empty());
    const TraceOp &op = t.ops.back();
    EXPECT_EQ(op.kind, InstrKind::Load);
    EXPECT_EQ(op.lineCount, 1);
    EXPECT_EQ(op.minLines, 1);
    EXPECT_FALSE(op.divergent());
}

TEST(WarpTrace, MisalignedCoalescedLoadSpansTwoLinesAndDiverges)
{
    WarpTrace t;
    auto sink = makeSink(t);
    sink.loadCoalesced(64, 4); // crosses a 128B boundary
    const TraceOp &op = t.ops.back();
    EXPECT_EQ(op.lineCount, 2);
    EXPECT_EQ(op.minLines, 1);
    EXPECT_TRUE(op.divergent());
}

TEST(WarpTrace, ScatteredLoadHitsManyLines)
{
    WarpTrace t;
    auto sink = makeSink(t);
    uint64_t addrs[32];
    for (int i = 0; i < 32; ++i)
        addrs[i] = static_cast<uint64_t>(i) * 4096;
    sink.loadGlobal(addrs, 32, 4);
    const TraceOp &op = t.ops.back();
    EXPECT_EQ(op.lineCount, 32);
    EXPECT_TRUE(op.divergent());
}

TEST(WarpTrace, DuplicateLaneAddressesCoalesce)
{
    WarpTrace t;
    auto sink = makeSink(t);
    uint64_t addrs[32];
    for (int i = 0; i < 32; ++i)
        addrs[i] = 256; // all lanes same address
    sink.loadGlobal(addrs, 32, 4);
    EXPECT_EQ(t.ops.back().lineCount, 1);
}

TEST(WarpTrace, MemOpsCarryImplicitAddressInts)
{
    WarpTrace t;
    auto sink = makeSink(t);
    uint64_t before = t.counts.int32;
    sink.loadCoalesced(0, 4);
    EXPECT_GT(t.counts.int32, before);
}

TEST(WarpTrace, StoreAndAtomicKinds)
{
    WarpTrace t;
    auto sink = makeSink(t);
    sink.storeCoalesced(0, 4);
    uint64_t a = 512;
    sink.atomicGlobal(&a, 1, 4);
    EXPECT_EQ(t.counts.stores, 2u);
    bool saw_store = false, saw_atomic = false;
    for (const auto &op : t.ops) {
        saw_store |= op.kind == InstrKind::Store;
        saw_atomic |= op.kind == InstrKind::Atomic;
    }
    EXPECT_TRUE(saw_store);
    EXPECT_TRUE(saw_atomic);
}

TEST(WarpTrace, CapStopsRecordingButKeepsCounting)
{
    WarpTrace t;
    WarpTraceSink sink(t, 10, 128);
    for (int i = 0; i < 50; ++i)
        sink.fp32(1);
    EXPECT_EQ(t.recordedInstrs, 10u);
    EXPECT_EQ(t.counts.fp32, 50u);
    EXPECT_TRUE(sink.full());
}

TEST(WarpTrace, ScaleRemainderMultipliesCounts)
{
    WarpTrace t;
    auto sink = makeSink(t);
    sink.fma(10);
    sink.int32(4);
    sink.scaleRemainder(3.0);
    EXPECT_EQ(t.counts.fp32, 30u);
    EXPECT_EQ(t.counts.int32, 12u);
    EXPECT_DOUBLE_EQ(t.counts.flops, 10 * 64 * 3.0);
}

TEST(WarpTrace, PartialWarpLanes)
{
    WarpTrace t;
    auto sink = makeSink(t);
    sink.loadCoalesced(0, 4, 8); // 8 active lanes, 32B
    const TraceOp &op = t.ops.back();
    EXPECT_EQ(op.lineCount, 1);
    EXPECT_EQ(op.minLines, 1);
}

TEST(WarpTrace, WideLanesNeedMoreMinLines)
{
    WarpTrace t;
    auto sink = makeSink(t);
    // 32 lanes x 8 bytes = 256B => 2 lines even when aligned.
    uint64_t addrs[32];
    for (int i = 0; i < 32; ++i)
        addrs[i] = static_cast<uint64_t>(i) * 8;
    sink.loadGlobal(addrs, 32, 8);
    const TraceOp &op = t.ops.back();
    EXPECT_EQ(op.lineCount, 2);
    EXPECT_EQ(op.minLines, 2);
    EXPECT_FALSE(op.divergent());
}

TEST(WarpTraceDeath, BadLaneCountPanics)
{
    WarpTrace t;
    auto sink = makeSink(t);
    uint64_t a = 0;
    EXPECT_DEATH(sink.loadGlobal(&a, 0, 4), "lanes out of range");
    EXPECT_DEATH(sink.loadGlobal(&a, 33, 4), "lanes out of range");
}
