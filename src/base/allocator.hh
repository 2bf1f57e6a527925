/**
 * @file
 * Memory policy layer: the Allocator interface with system and caching
 * arena implementations, plus the deterministic simulated-device
 * address space every sim-visible buffer maps into.
 *
 * Two separate concerns live here on purpose:
 *
 *  - *Host bytes*: where tensor storage physically lives. Selected by
 *    `GNNMARK_ALLOC=caching|system` (default caching). The caching
 *    arena recycles power-of-two buckets carved from slabs, so a
 *    steady-state training iteration performs no heap calls at all;
 *    the system allocator is a thin posix_memalign shim kept as the
 *    baseline the caching mode is measured against.
 *
 *  - *Device addresses*: what the GPU cache models hash. These come
 *    from DeviceAddrSpace, a virtual arena that assigns addresses
 *    purely by allocation order with the same bucketed-recycling
 *    discipline. Because the VA stream is a function of program order
 *    only, every simulated report is bitwise identical across host
 *    allocator modes, ASLR seeds, and malloc implementations — the
 *    determinism contract in DESIGN.md "Memory model".
 *
 * Thread safety: all public entry points are mutex-guarded; stats use
 * integer counters so snapshots are exact.
 */

#ifndef GNNMARK_BASE_ALLOCATOR_HH
#define GNNMARK_BASE_ALLOCATOR_HH

#include <cstddef>
#include <cstdint>
#include <string>

namespace gnnmark {

/** Alignment of every allocator block (SIMD-safe, cache-line padded). */
constexpr size_t kAllocAlign = 256;

/** Exact counter snapshot of one allocator (or the VA space). */
struct AllocStats
{
    uint64_t requests = 0;    ///< allocate() calls
    uint64_t releases = 0;    ///< deallocate() calls
    uint64_t cacheHits = 0;   ///< served from a free list
    uint64_t cacheMisses = 0; ///< had to touch the backing heap/arena
    uint64_t heapCalls = 0;   ///< backing allocations (slabs + large)
    uint64_t bytesLive = 0;   ///< bucket-rounded live bytes
    uint64_t bytesPeak = 0;   ///< high-water mark of bytesLive
    uint64_t slabsMapped = 0; ///< backing regions mapped
    uint64_t slabBytes = 0;   ///< total bytes of backing regions

    double
    hitRate() const
    {
        return requests == 0
                   ? 0.0
                   : static_cast<double>(cacheHits) /
                         static_cast<double>(requests);
    }
};

/** Host-byte allocation policy bound per run (see ContextGuard). */
class Allocator
{
  public:
    virtual ~Allocator() = default;

    /** 256-byte-aligned block of at least `bytes` (never nullptr). */
    virtual void *allocate(size_t bytes) = 0;

    /** Return a block; `bytes` must match the allocate() request. */
    virtual void deallocate(void *p, size_t bytes) = 0;

    /** Mode name as spelled in GNNMARK_ALLOC. */
    virtual const char *name() const = 0;

    /** Exact counter snapshot. */
    virtual AllocStats stats() const = 0;
};

/** @{ Process-wide allocator instances (never destroyed). */
Allocator &systemAllocator();
Allocator &cachingAllocator();
/** @} */

/**
 * The allocator selected by GNNMARK_ALLOC (caching unless "system";
 * any other value aborts). Read once, cached for the process.
 */
Allocator &defaultAllocator();

/** Instance by mode name ("caching" | "system"), nullptr if unknown. */
Allocator *allocatorByName(const std::string &name);

/**
 * @{ Thread-local allocator binding. ContextGuard (ops layer) binds a
 * run's allocator here; Storage::allocate resolves through
 * currentAllocator() = bound-or-default. Lives in base so the tensor
 * layer can resolve the binding without depending on ops.
 */
void bindAllocator(Allocator *alloc);
Allocator *boundAllocator();
Allocator &currentAllocator();
/** @} */

/**
 * Deterministic simulated-device address space. Addresses start at a
 * fixed base far above any plausible bucket sum and are assigned by a
 * caching arena over *virtual* slabs, so (a) the address stream is a
 * pure function of the map/unmap call sequence and (b) a training
 * loop's buffers revisit the same addresses every iteration — the
 * stability the persistent-L2 model observes.
 */
class DeviceAddrSpace
{
  public:
    static DeviceAddrSpace &instance();

    /** Map `bytes` (0 is fine) and return the device address. */
    uint64_t map(size_t bytes);

    /** Release a mapping made by map() with the same byte count. */
    void unmap(uint64_t addr, size_t bytes);

    AllocStats stats() const;

    /**
     * Forget every address handed out: the next map() returns what a
     * new process's first map() would, so a run that starts here maps
     * its buffers as if it were the process's first. Nothing may be
     * mapped, and no other thread may map or unmap meanwhile.
     */
    void reset();

  private:
    DeviceAddrSpace();
    struct Impl;
    Impl *impl_; ///< leaked on purpose: outlives static teardown
};

/**
 * RAII device mapping for sim-visible host buffers that are not
 * tensors (index vectors, sort scratch, segment offsets, labels).
 * Maps on construction, unmaps on destruction; because op bodies run
 * in program order the resulting address stream is deterministic.
 */
class DeviceSpan
{
  public:
    DeviceSpan() = default;
    explicit DeviceSpan(size_t bytes)
        : addr_(DeviceAddrSpace::instance().map(bytes)), bytes_(bytes)
    {
    }
    ~DeviceSpan() { reset(); }

    DeviceSpan(const DeviceSpan &) = delete;
    DeviceSpan &operator=(const DeviceSpan &) = delete;
    DeviceSpan(DeviceSpan &&other) noexcept
        : addr_(other.addr_), bytes_(other.bytes_)
    {
        other.addr_ = 0;
        other.bytes_ = 0;
    }
    DeviceSpan &
    operator=(DeviceSpan &&other) noexcept
    {
        if (this != &other) {
            reset();
            addr_ = other.addr_;
            bytes_ = other.bytes_;
            other.addr_ = 0;
            other.bytes_ = 0;
        }
        return *this;
    }

    uint64_t addr() const { return addr_; }
    size_t bytes() const { return bytes_; }

    void
    reset()
    {
        if (bytes_ != 0 || addr_ != 0)
            DeviceAddrSpace::instance().unmap(addr_, bytes_);
        addr_ = 0;
        bytes_ = 0;
    }

  private:
    uint64_t addr_ = 0;
    size_t bytes_ = 0;
};

} // namespace gnnmark

#endif // GNNMARK_BASE_ALLOCATOR_HH
