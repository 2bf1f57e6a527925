#include "base/allocator.hh"

#include <cstdlib>
#include <mutex>
#include <vector>

#include "base/logging.hh"

namespace gnnmark {

namespace {

/** Smallest bucket; everything is rounded up to a power of two. */
constexpr size_t kMinBlock = 256;

/** Slab size small buckets are carved from. */
constexpr size_t kSlabBytes = size_t{1} << 20; // 1 MiB

/** Buckets at or above this get a dedicated backing region. */
constexpr size_t kLargeThreshold = size_t{1} << 16; // 64 KiB

size_t
bucketBytes(size_t bytes)
{
    size_t b = kMinBlock;
    while (b < bytes)
        b <<= 1;
    return b;
}

int
bucketIndex(size_t bucket_bytes)
{
    int i = 0;
    while ((kMinBlock << i) < bucket_bytes)
        ++i;
    return i;
}

/**
 * The bucketed-recycling engine shared by the caching host allocator
 * and the device address space: power-of-two free lists in front of a
 * slab cursor, LIFO reuse so a loop's blocks revisit the same
 * addresses. The backing callback maps a fresh region (heap memory or
 * virtual address range) and is invoked under the arena lock.
 */
class ArenaCore
{
  public:
    using MapBacking = uint64_t (*)(void *ctx, size_t bytes);

    ArenaCore(MapBacking map_backing, void *ctx)
        : mapBacking_(map_backing), ctx_(ctx)
    {
    }

    uint64_t
    acquire(size_t bytes)
    {
        const size_t b = bucketBytes(bytes);
        const size_t idx = static_cast<size_t>(bucketIndex(b));
        std::lock_guard<std::mutex> lock(mu_);
        ++stats_.requests;
        stats_.bytesLive += b;
        if (stats_.bytesLive > stats_.bytesPeak)
            stats_.bytesPeak = stats_.bytesLive;
        if (idx < freeLists_.size() && !freeLists_[idx].empty()) {
            ++stats_.cacheHits;
            const uint64_t p = freeLists_[idx].back();
            freeLists_[idx].pop_back();
            return p;
        }
        ++stats_.cacheMisses;
        if (b >= kLargeThreshold) {
            ++stats_.heapCalls;
            ++stats_.slabsMapped;
            stats_.slabBytes += b;
            return mapBacking_(ctx_, b);
        }
        if (slabRemaining_ < b) {
            // The previous slab's tail (always < 64 KiB) is abandoned;
            // bounded waste in exchange for O(1) carving.
            ++stats_.heapCalls;
            ++stats_.slabsMapped;
            stats_.slabBytes += kSlabBytes;
            slabCursor_ = mapBacking_(ctx_, kSlabBytes);
            slabRemaining_ = kSlabBytes;
        }
        const uint64_t p = slabCursor_;
        slabCursor_ += b;
        slabRemaining_ -= b;
        return p;
    }

    void
    release(uint64_t addr, size_t bytes)
    {
        const size_t b = bucketBytes(bytes);
        const size_t idx = static_cast<size_t>(bucketIndex(b));
        std::lock_guard<std::mutex> lock(mu_);
        ++stats_.releases;
        GNN_ASSERT(stats_.bytesLive >= b,
                   "allocator release of %zu bytes with %llu live", b,
                   static_cast<unsigned long long>(stats_.bytesLive));
        stats_.bytesLive -= b;
        if (freeLists_.size() <= idx)
            freeLists_.resize(idx + 1);
        freeLists_[idx].push_back(addr);
    }

    AllocStats
    stats() const
    {
        std::lock_guard<std::mutex> lock(mu_);
        return stats_;
    }

  private:
    mutable std::mutex mu_;
    MapBacking mapBacking_;
    void *ctx_;
    std::vector<std::vector<uint64_t>> freeLists_;
    uint64_t slabCursor_ = 0;
    size_t slabRemaining_ = 0;
    AllocStats stats_;
};

/** posix_memalign-backed caching arena (the GNNMARK_ALLOC=caching mode). */
class CachingArenaAllocator : public Allocator
{
  public:
    CachingArenaAllocator() : core_(&CachingArenaAllocator::mapSlab, this)
    {
    }

    void *
    allocate(size_t bytes) override
    {
        return reinterpret_cast<void *>(core_.acquire(bytes));
    }

    void
    deallocate(void *p, size_t bytes) override
    {
        core_.release(reinterpret_cast<uint64_t>(p), bytes);
    }

    const char *name() const override { return "caching"; }

    AllocStats stats() const override { return core_.stats(); }

  private:
    static uint64_t
    mapSlab(void *ctx, size_t bytes)
    {
        auto *self = static_cast<CachingArenaAllocator *>(ctx);
        void *raw = nullptr;
        const int rc = posix_memalign(&raw, kAllocAlign, bytes);
        GNN_ASSERT(rc == 0, "slab allocation of %zu bytes failed", bytes);
        // Keep the base pointer reachable: slabs live for the process
        // (blocks are recycled, never returned to the heap).
        self->slabs_.push_back(raw);
        return reinterpret_cast<uint64_t>(raw);
    }

    ArenaCore core_;
    std::vector<void *> slabs_; ///< guarded by the core's lock
};

/** One heap call per tensor: the baseline the caching mode beats. */
class SystemAllocator : public Allocator
{
  public:
    void *
    allocate(size_t bytes) override
    {
        void *raw = nullptr;
        const size_t b = bytes < kMinBlock ? kMinBlock : bytes;
        const int rc = posix_memalign(&raw, kAllocAlign, b);
        GNN_ASSERT(rc == 0, "allocation of %zu bytes failed", b);
        std::lock_guard<std::mutex> lock(mu_);
        ++stats_.requests;
        ++stats_.cacheMisses;
        ++stats_.heapCalls;
        stats_.bytesLive += b;
        if (stats_.bytesLive > stats_.bytesPeak)
            stats_.bytesPeak = stats_.bytesLive;
        return raw;
    }

    void
    deallocate(void *p, size_t bytes) override
    {
        std::free(p);
        const size_t b = bytes < kMinBlock ? kMinBlock : bytes;
        std::lock_guard<std::mutex> lock(mu_);
        ++stats_.releases;
        stats_.bytesLive -= b;
    }

    const char *name() const override { return "system"; }

    AllocStats
    stats() const override
    {
        std::lock_guard<std::mutex> lock(mu_);
        return stats_;
    }

  private:
    mutable std::mutex mu_;
    AllocStats stats_;
};

thread_local Allocator *boundAlloc = nullptr;

} // namespace

Allocator &
systemAllocator()
{
    static SystemAllocator *a = new SystemAllocator();
    return *a;
}

Allocator &
cachingAllocator()
{
    static CachingArenaAllocator *a = new CachingArenaAllocator();
    return *a;
}

Allocator &
defaultAllocator()
{
    static Allocator *a = [] {
        const char *env = std::getenv("GNNMARK_ALLOC");
        if (env == nullptr || *env == '\0')
            return &cachingAllocator();
        Allocator *named = allocatorByName(env);
        GNN_ASSERT(named != nullptr,
                   "GNNMARK_ALLOC must be 'caching' or 'system', got '%s'",
                   env);
        return named;
    }();
    return *a;
}

Allocator *
allocatorByName(const std::string &name)
{
    if (name == "caching")
        return &cachingAllocator();
    if (name == "system")
        return &systemAllocator();
    return nullptr;
}

void
bindAllocator(Allocator *alloc)
{
    boundAlloc = alloc;
}

Allocator *
boundAllocator()
{
    return boundAlloc;
}

Allocator &
currentAllocator()
{
    return boundAlloc != nullptr ? *boundAlloc : defaultAllocator();
}

struct DeviceAddrSpace::Impl
{
    /**
     * Fixed VA base: high enough that bucket arithmetic can never
     * wrap, and obviously synthetic in traces (0x4000_0000_0000).
     */
    static constexpr uint64_t kBase = uint64_t{1} << 46;

    Impl() : core(&Impl::mapVirtualSlab, this) {}

    static uint64_t
    mapVirtualSlab(void *ctx, size_t bytes)
    {
        auto *self = static_cast<Impl *>(ctx);
        const uint64_t va = self->next;
        self->next += bytes;
        return va;
    }

    uint64_t next = kBase;
    ArenaCore core;
};

DeviceAddrSpace::DeviceAddrSpace() : impl_(new Impl())
{
}

DeviceAddrSpace &
DeviceAddrSpace::instance()
{
    static DeviceAddrSpace *space = new DeviceAddrSpace();
    return *space;
}

uint64_t
DeviceAddrSpace::map(size_t bytes)
{
    return impl_->core.acquire(bytes);
}

void
DeviceAddrSpace::unmap(uint64_t addr, size_t bytes)
{
    impl_->core.release(addr, bytes);
}

AllocStats
DeviceAddrSpace::stats() const
{
    return impl_->core.stats();
}

void
DeviceAddrSpace::reset()
{
    const uint64_t live = stats().bytesLive;
    GNN_ASSERT(live == 0,
               "device address space reset with %llu bytes still mapped",
               static_cast<unsigned long long>(live));
    delete impl_;
    impl_ = new Impl();
}

} // namespace gnnmark
