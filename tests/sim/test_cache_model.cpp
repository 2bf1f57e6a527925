/** @file Tests for the set-associative LRU cache model. */

#include <gtest/gtest.h>

#include <algorithm>
#include <tuple>

#include "base/rng.hh"
#include "sim/cache_model.hh"

using namespace gnnmark;

TEST(CacheModel, ColdMissThenHit)
{
    CacheModel c(1024, 2, 64);
    EXPECT_FALSE(c.access(0));
    EXPECT_TRUE(c.access(0));
    EXPECT_TRUE(c.access(63));  // same line
    EXPECT_FALSE(c.access(64)); // next line
}

TEST(CacheModel, LruEvictsOldest)
{
    // 2-way, 1 set: capacity 2 lines.
    CacheModel c(128, 2, 64);
    c.access(0);   // A
    c.access(64);  // B
    c.access(0);   // touch A; B is now LRU
    c.access(128); // C evicts B
    EXPECT_TRUE(c.access(0));
    EXPECT_FALSE(c.access(64)); // B was evicted
}

TEST(CacheModel, SetIndexingSeparatesSets)
{
    // 2 sets, direct-mapped: lines 0 and 1 land in different sets.
    CacheModel c(128, 1, 64);
    c.access(0);
    c.access(64);
    EXPECT_TRUE(c.access(0));
    EXPECT_TRUE(c.access(64));
    // Conflicting line in set 0 evicts line 0 only.
    c.access(128);
    EXPECT_FALSE(c.access(0));
    EXPECT_TRUE(c.access(64));
}

TEST(CacheModel, FlushDropsEverything)
{
    CacheModel c(1024, 4, 64);
    c.access(0);
    c.flush();
    EXPECT_FALSE(c.access(0));
}

TEST(CacheModelDeath, BadGeometryPanics)
{
    EXPECT_DEATH(CacheModel(100, 2, 64), "multiple");
    EXPECT_DEATH(CacheModel(1024, 2, 63), "power of two");
}

/**
 * Property: a working set no larger than the capacity never misses
 * after the first (cold) pass, for any associativity.
 */
class CacheResidency : public ::testing::TestWithParam<int>
{
};

TEST_P(CacheResidency, WorkingSetFitsAfterWarmup)
{
    const int assoc = GetParam();
    CacheModel c(64 * 64, assoc, 64); // 64 lines capacity
    int hits = 0;
    int misses = 0;
    for (int round = 0; round < 3; ++round) {
        for (uint64_t line = 0; line < 64; ++line) {
            if (c.access(line * 64))
                ++hits;
            else
                ++misses;
        }
    }
    EXPECT_EQ(misses, 64);
    EXPECT_EQ(hits, 128);
}

TEST_P(CacheResidency, ThrashingWorkingSetMissesEveryTime)
{
    const int assoc = GetParam();
    CacheModel c(64 * 64, assoc, 64);
    // Working set = 2x capacity, streamed cyclically: true LRU evicts
    // the line just before it would be reused.
    int misses = 0;
    for (int round = 0; round < 4; ++round) {
        for (uint64_t line = 0; line < 128; ++line)
            misses += c.access(line * 64) ? 0 : 1;
    }
    EXPECT_EQ(misses, 4 * 128); // everything misses
}

INSTANTIATE_TEST_SUITE_P(Assoc, CacheResidency,
                         ::testing::Values(1, 2, 4, 8, 16));

namespace {

/** Sets whose (line, lastUse) pairs differ between two caches. */
int64_t
mismatchedSets(const CacheModel &a, const CacheModel &b)
{
    int64_t bad = 0;
    for (uint64_t set = 0; set < a.numSets(); ++set)
        bad += a.setState(set) != b.setState(set) ? 1 : 0;
    return bad;
}

} // namespace

/**
 * Differential check of the deferred install against the eager walk,
 * per (sets, ways): random logs of footprint ranges (unaligned, budget
 * capped, below and above capacity, past the range cap, cut by
 * flushes), interleaved with access() bursts, must give the same
 * hit/miss sequence and the same (line, lastUse) pairs in every set.
 */
class DeferredInstall
    : public ::testing::TestWithParam<std::tuple<int, int>>
{
};

TEST_P(DeferredInstall, MatchesTheEagerWalk)
{
    const auto [sets, assoc] = GetParam();
    constexpr int kLine = 64;
    const uint64_t capacity = static_cast<uint64_t>(sets) * assoc;
    CacheModel eager(capacity * kLine, assoc, kLine);
    CacheModel lazy(capacity * kLine, assoc, kLine);
    ASSERT_EQ(lazy.numSets(), static_cast<uint64_t>(sets));
    Rng rng(static_cast<uint64_t>(sets) * 131 + assoc);

    // An address space a few times the capacity: ranges overlap,
    // re-touch each other's lines and wrap around the sets.
    const uint64_t space = 4 * capacity + 7;
    for (int round = 0; round < 120; ++round) {
        if (round % 3 == 2) {
            // Exactly kMaxDeferred ranges: the last one materializes
            // the log, or setState() below would refuse it.
            for (size_t i = 0; i < CacheModel::kMaxDeferred; ++i) {
                const uint64_t addr = rng.randint(space) * kLine;
                eager.accessLines(addr, kLine, 1);
                lazy.deferLines(addr, kLine, 1);
            }
        } else {
            // Just under a capacity's worth of lines (replayed
            // eagerly), or three (walked newest-first).
            const bool below = round % 3 == 0;
            const uint64_t target =
                below ? std::max<uint64_t>(capacity - 1, 1) : 3 * capacity;
            uint64_t logged = 0;
            while (logged < target) {
                const uint64_t room =
                    below ? target - logged : 2 * capacity;
                const uint64_t addr =
                    rng.randint(space) * kLine + rng.randint(kLine);
                const uint64_t bytes = 1 + rng.randint(room * kLine);
                const int64_t budget =
                    rng.bernoulli(0.3)
                        ? static_cast<int64_t>(rng.randint(capacity)) + 1
                        : 32768;
                const int64_t n = eager.accessLines(addr, bytes, budget);
                ASSERT_EQ(lazy.deferLines(addr, bytes, budget), n);
                logged += static_cast<uint64_t>(n);
                if (rng.bernoulli(0.02)) {
                    eager.flush();
                    lazy.flush();
                }
            }
            if (rng.bernoulli(0.5)) {
                lazy.materialize();
            } else {
                // access() materializes on its own.
                const uint64_t addr = rng.randint(space) * kLine;
                ASSERT_EQ(lazy.access(addr), eager.access(addr));
            }
        }
        ASSERT_EQ(mismatchedSets(eager, lazy), 0) << "round " << round;
        for (int i = 0; i < 32; ++i) {
            const uint64_t addr = rng.randint(space) * kLine;
            ASSERT_EQ(lazy.access(addr), eager.access(addr))
                << "round " << round << " access " << i;
        }
    }
    ASSERT_EQ(mismatchedSets(eager, lazy), 0);
}

INSTANTIATE_TEST_SUITE_P(
    SetsWays, DeferredInstall,
    ::testing::Values(std::make_tuple(1, 1), std::make_tuple(3, 1),
                      std::make_tuple(16, 1), std::make_tuple(7, 2),
                      std::make_tuple(5, 4), std::make_tuple(8, 16),
                      std::make_tuple(6, 16), std::make_tuple(3, 64)));
