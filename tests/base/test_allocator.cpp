/** @file Caching arena allocator + deterministic device address space. */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <set>
#include <thread>
#include <vector>

#include "base/allocator.hh"

using namespace gnnmark;

namespace {

uint64_t
addrOf(void *p)
{
    return reinterpret_cast<uint64_t>(p);
}

} // namespace

TEST(Allocator, BlocksAreAligned)
{
    for (Allocator *a : {&systemAllocator(), &cachingAllocator()}) {
        for (size_t bytes : {size_t{1}, size_t{100}, size_t{4096},
                             size_t{1} << 20}) {
            void *p = a->allocate(bytes);
            ASSERT_NE(p, nullptr);
            EXPECT_EQ(addrOf(p) % kAllocAlign, 0u)
                << a->name() << " " << bytes;
            // The block must really be writable end to end.
            std::memset(p, 0xab, bytes);
            a->deallocate(p, bytes);
        }
    }
}

TEST(Allocator, CachingReusesFreedBlockLifo)
{
    Allocator &a = cachingAllocator();
    void *p1 = a.allocate(1000);
    a.deallocate(p1, 1000);
    // Same bucket -> the freed block comes straight back (LIFO).
    void *p2 = a.allocate(900);
    EXPECT_EQ(p1, p2);
    // And with it gone, a third request gets a different block.
    void *p3 = a.allocate(1000);
    EXPECT_NE(p2, p3);
    a.deallocate(p2, 900);
    a.deallocate(p3, 1000);
}

TEST(Allocator, CachingStatsCountHitsAndMisses)
{
    Allocator &a = cachingAllocator();
    const AllocStats before = a.stats();

    void *p = a.allocate(512);
    a.deallocate(p, 512);
    void *q = a.allocate(512); // must be a free-list hit
    a.deallocate(q, 512);

    const AllocStats after = a.stats();
    EXPECT_EQ(after.requests - before.requests, 2u);
    EXPECT_EQ(after.releases - before.releases, 2u);
    EXPECT_GE(after.cacheHits - before.cacheHits, 1u);
    EXPECT_EQ(after.bytesLive, before.bytesLive);
    EXPECT_GE(after.bytesPeak, before.bytesPeak);
}

TEST(Allocator, SystemModeCallsHeapEveryTime)
{
    Allocator &a = systemAllocator();
    const AllocStats before = a.stats();
    void *p = a.allocate(512);
    a.deallocate(p, 512);
    void *q = a.allocate(512);
    a.deallocate(q, 512);
    const AllocStats after = a.stats();
    EXPECT_EQ(after.requests - before.requests, 2u);
    EXPECT_EQ(after.heapCalls - before.heapCalls, 2u);
    EXPECT_EQ(after.cacheHits, before.cacheHits);
}

TEST(Allocator, LargeBlocksBypassSlabs)
{
    Allocator &a = cachingAllocator();
    const AllocStats before = a.stats();
    const size_t big = size_t{3} << 20; // above the slab threshold
    void *p = a.allocate(big);
    std::memset(p, 0, big);
    const AllocStats mid = a.stats();
    EXPECT_GE(mid.bytesLive - before.bytesLive, big);
    a.deallocate(p, big);
    // Freed large blocks are cached too: same address comes back.
    void *q = a.allocate(big);
    EXPECT_EQ(p, q);
    a.deallocate(q, big);
    EXPECT_EQ(a.stats().bytesLive, before.bytesLive);
}

TEST(Allocator, ByNameResolvesModes)
{
    EXPECT_EQ(allocatorByName("caching"), &cachingAllocator());
    EXPECT_EQ(allocatorByName("system"), &systemAllocator());
    EXPECT_EQ(allocatorByName("bogus"), nullptr);
    EXPECT_STREQ(cachingAllocator().name(), "caching");
    EXPECT_STREQ(systemAllocator().name(), "system");
}

TEST(Allocator, BindingIsThreadLocal)
{
    Allocator *outer = boundAllocator();
    bindAllocator(&systemAllocator());
    EXPECT_EQ(&currentAllocator(), &systemAllocator());
    std::thread([] {
        // A fresh thread starts unbound and sees the default.
        EXPECT_EQ(boundAllocator(), nullptr);
        EXPECT_EQ(&currentAllocator(), &defaultAllocator());
    }).join();
    bindAllocator(outer);
}

TEST(Allocator, MultiThreadedStressBalances)
{
    Allocator &a = cachingAllocator();
    const AllocStats before = a.stats();
    constexpr int kThreads = 8;
    constexpr int kIters = 2000;

    std::vector<std::thread> workers;
    for (int t = 0; t < kThreads; ++t) {
        workers.emplace_back([&a, t] {
            // Deterministic interleaved alloc/free with a small window
            // of live blocks so frees hit both fresh and aged blocks.
            std::vector<std::pair<void *, size_t>> live;
            for (int i = 0; i < kIters; ++i) {
                const size_t bytes =
                    64 + static_cast<size_t>((i * 37 + t * 101) % 8192);
                void *p = a.allocate(bytes);
                ASSERT_NE(p, nullptr);
                static_cast<char *>(p)[0] = static_cast<char>(i);
                static_cast<char *>(p)[bytes - 1] =
                    static_cast<char>(t);
                live.emplace_back(p, bytes);
                if (live.size() > 16) {
                    const size_t victim = (i * 13 + t) % live.size();
                    a.deallocate(live[victim].first,
                                 live[victim].second);
                    live.erase(live.begin() +
                               static_cast<ptrdiff_t>(victim));
                }
            }
            for (auto &[p, bytes] : live)
                a.deallocate(p, bytes);
        });
    }
    for (std::thread &w : workers)
        w.join();

    const AllocStats after = a.stats();
    EXPECT_EQ(after.requests - before.requests,
              static_cast<uint64_t>(kThreads) * kIters);
    EXPECT_EQ(after.releases - before.releases,
              static_cast<uint64_t>(kThreads) * kIters);
    EXPECT_EQ(after.bytesLive, before.bytesLive);
}

TEST(DeviceAddrSpace, AddressesStartAboveTheArenaBase)
{
    DeviceSpan s(64);
    EXPECT_GE(s.addr(), uint64_t{1} << 46);
}

TEST(DeviceAddrSpace, MapUnmapMapReturnsTheSameAddress)
{
    DeviceAddrSpace &va = DeviceAddrSpace::instance();
    const uint64_t a1 = va.map(4096);
    va.unmap(a1, 4096);
    const uint64_t a2 = va.map(4096);
    EXPECT_EQ(a1, a2); // LIFO recycling: iteration-stable addresses
    va.unmap(a2, 4096);
}

TEST(DeviceAddrSpace, LiveMappingsDoNotOverlap)
{
    DeviceAddrSpace &va = DeviceAddrSpace::instance();
    std::vector<std::pair<uint64_t, size_t>> maps;
    for (size_t bytes : {size_t{100}, size_t{100}, size_t{5000},
                         size_t{1} << 17, size_t{256}}) {
        maps.emplace_back(va.map(bytes), bytes);
    }
    for (size_t i = 0; i < maps.size(); ++i) {
        for (size_t j = i + 1; j < maps.size(); ++j) {
            const uint64_t ai = maps[i].first, bi = maps[j].first;
            const uint64_t ei = ai + maps[i].second;
            const uint64_t ej = bi + maps[j].second;
            EXPECT_TRUE(ei <= bi || ej <= ai)
                << "overlap between mapping " << i << " and " << j;
        }
    }
    for (auto &[addr, bytes] : maps)
        va.unmap(addr, bytes);
}

TEST(DeviceAddrSpace, ResetStartsOverAtTheArenaBase)
{
    DeviceAddrSpace &va = DeviceAddrSpace::instance();
    va.unmap(va.map(4096), 4096);
    va.reset();
    EXPECT_EQ(va.stats().requests, 0u);
    DeviceSpan s(4096);
    EXPECT_EQ(s.addr(), uint64_t{1} << 46);
}

TEST(DeviceAddrSpaceDeath, ResetRefusesWhileAnythingIsMapped)
{
    DeviceSpan s(64);
    EXPECT_DEATH(DeviceAddrSpace::instance().reset(), "still mapped");
}

TEST(DeviceSpan, MoveTransfersOwnership)
{
    DeviceSpan a(512);
    const uint64_t addr = a.addr();
    DeviceSpan b(std::move(a));
    EXPECT_EQ(b.addr(), addr);
    EXPECT_EQ(a.addr(), 0u);
    EXPECT_EQ(a.bytes(), 0u);

    DeviceSpan c;
    c = std::move(b);
    EXPECT_EQ(c.addr(), addr);
    EXPECT_EQ(b.bytes(), 0u);
}
