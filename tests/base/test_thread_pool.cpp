/** @file Thread pool semantics: coverage, chunking, determinism. */

#include <gtest/gtest.h>

#include <atomic>
#include <mutex>
#include <numeric>
#include <utility>
#include <vector>

#include "base/logging.hh"
#include "base/thread_pool.hh"
#include "common/thread_count_guard.hh"

using namespace gnnmark;

namespace {

/** Chunk boundaries seen by one parallel_for run, sorted by begin. */
std::vector<std::pair<int64_t, int64_t>>
observedChunks(int64_t begin, int64_t end, int64_t grain)
{
    std::mutex mu;
    std::vector<std::pair<int64_t, int64_t>> chunks;
    parallel_for(begin, end, grain, [&](int64_t b, int64_t e) {
        std::lock_guard<std::mutex> lock(mu);
        chunks.emplace_back(b, e);
    });
    std::sort(chunks.begin(), chunks.end());
    return chunks;
}

} // namespace

TEST(ThreadPool, SetThreadCountIsRespected)
{
    test::ThreadCountGuard guard(3);
    EXPECT_EQ(ThreadPool::instance().threadCount(), 3);
}

TEST(ThreadPool, EmptyRangeRunsNothing)
{
    test::ThreadCountGuard guard(4);
    std::atomic<int> calls{0};
    parallel_for(5, 5, 1, [&](int64_t, int64_t) { ++calls; });
    parallel_for(7, 3, 1, [&](int64_t, int64_t) { ++calls; });
    EXPECT_EQ(calls.load(), 0);
}

TEST(ThreadPool, CoversEveryIndexExactlyOnce)
{
    for (int threads : {1, 2, 8}) {
        test::ThreadCountGuard guard(threads);
        const int64_t n = 1000;
        std::vector<std::atomic<int>> hits(n);
        for (auto &h : hits)
            h = 0;
        parallel_for(0, n, 7, [&](int64_t b, int64_t e) {
            for (int64_t i = b; i < e; ++i)
                ++hits[i];
        });
        for (int64_t i = 0; i < n; ++i)
            EXPECT_EQ(hits[i].load(), 1) << "i=" << i;
    }
}

TEST(ThreadPool, ChunkBoundariesIndependentOfThreadCount)
{
    std::vector<std::pair<int64_t, int64_t>> ref;
    {
        test::ThreadCountGuard guard(1);
        ref = observedChunks(3, 250, 16);
    }
    for (int threads : {2, 8}) {
        test::ThreadCountGuard guard(threads);
        EXPECT_EQ(observedChunks(3, 250, 16), ref)
            << "threads=" << threads;
    }
    // Chunk layout is (begin, min(begin + grain, end)) stepped by grain.
    ASSERT_FALSE(ref.empty());
    EXPECT_EQ(ref.front().first, 3);
    EXPECT_EQ(ref.back().second, 250);
    for (size_t i = 1; i < ref.size(); ++i)
        EXPECT_EQ(ref[i].first, ref[i - 1].second);
}

TEST(ThreadPool, NestedParallelForFallsBackToSerial)
{
    test::ThreadCountGuard guard(4);
    std::atomic<int64_t> total{0};
    parallel_for(0, 8, 1, [&](int64_t, int64_t) {
        // Inner loop must not deadlock on the (busy) outer pool.
        parallel_for(0, 10, 2, [&](int64_t b, int64_t e) {
            total += e - b;
        });
    });
    EXPECT_EQ(total.load(), 80);
}

TEST(ThreadPool, ReduceMatchesSerialSum)
{
    std::vector<int64_t> v(10000);
    std::iota(v.begin(), v.end(), 0);
    const int64_t expect =
        std::accumulate(v.begin(), v.end(), int64_t{0});
    for (int threads : {1, 2, 8}) {
        test::ThreadCountGuard guard(threads);
        int64_t sum = parallel_reduce(
            0, static_cast<int64_t>(v.size()), 64, int64_t{0},
            [&](int64_t b, int64_t e) {
                int64_t s = 0;
                for (int64_t i = b; i < e; ++i)
                    s += v[i];
                return s;
            },
            [](int64_t a, int64_t b) { return a + b; });
        EXPECT_EQ(sum, expect) << "threads=" << threads;
    }
}

TEST(ThreadPool, FloatReduceBitwiseStableAcrossThreadCounts)
{
    // Chunked float accumulation is order-sensitive; the chunk layout
    // (not the thread count) must fix the combine order.
    std::vector<float> v(4097);
    for (size_t i = 0; i < v.size(); ++i)
        v[i] = 1.0f / static_cast<float>(i + 1);
    auto run = [&]() {
        return parallel_reduce(
            0, static_cast<int64_t>(v.size()), 100, 0.0f,
            [&](int64_t b, int64_t e) {
                float s = 0.0f;
                for (int64_t i = b; i < e; ++i)
                    s += v[i];
                return s;
            },
            [](float a, float b) { return a + b; });
    };
    float ref;
    {
        test::ThreadCountGuard guard(1);
        ref = run();
    }
    for (int threads : {2, 8}) {
        test::ThreadCountGuard guard(threads);
        EXPECT_EQ(run(), ref) << "threads=" << threads;
    }
}

TEST(ThreadPoolDeath, FatalExitsCleanlyWhileWorkersAreParked)
{
    // Start the workers first, in this same case: the death-test
    // child is forked without them, and its exit() must not try to
    // join them.
    test::ThreadCountGuard guard(4);
    std::atomic<int> chunks{0};
    parallel_for(0, 64, 1, [&](int64_t, int64_t) { ++chunks; });
    ASSERT_EQ(chunks.load(), 64);
    EXPECT_EXIT(GNN_FATAL("stopping with %d pool threads", 4),
                ::testing::ExitedWithCode(1),
                "fatal.*stopping with 4 pool threads");
}
