/**
 * @file
 * Set-associative LRU cache model used for the GPU's L1 data caches,
 * the shared L2, and (with small geometry) the per-SM L0 I-caches.
 */

#ifndef GNNMARK_SIM_CACHE_MODEL_HH
#define GNNMARK_SIM_CACHE_MODEL_HH

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace gnnmark {

/**
 * A classic set-associative cache with true-LRU replacement.
 *
 * Addresses are byte addresses; the model tracks tags only (no data).
 * Statistics accumulate until resetStats().
 *
 * Bulk installs can be deferred (deferLines) and applied later in one
 * pass (materialize); every reader materializes first, so a deferred
 * install is indistinguishable from accessLines() except that its
 * lines do not count toward hits()/misses(). Nothing reads the L2's
 * own counters: GpuDevice keeps its L2 private, and a KernelRecord's
 * hits come from the WarpPipeline's per-access results.
 */
class CacheModel
{
  public:
    /**
     * @param size_bytes Total capacity; must be a multiple of
     *                   line_bytes * assoc.
     * @param assoc      Ways per set.
     * @param line_bytes Line size (power of two).
     */
    CacheModel(uint64_t size_bytes, int assoc, int line_bytes);

    /**
     * Look up (and on miss, fill) the line containing addr.
     * @return true on hit.
     */
    bool access(uint64_t addr)
    {
        if (!deferred_.empty()) [[unlikely]]
            materialize();
        const uint64_t line = addr >> lineShift_;
        return accessLine(line, setIndex(line));
    }

    /**
     * access() every line of [addr, addr+bytes), at most max_lines of
     * them. State and statistics end up identical to the equivalent
     * per-line access() loop; the sequential walk just pays the
     * set-index reduction once. This eager walk is the reference the
     * deferred install is tested against.
     * @return lines touched.
     */
    int64_t accessLines(uint64_t addr, uint64_t bytes,
                        int64_t max_lines);

    /**
     * accessLines(), deferred: logs the range and advances the clock
     * exactly as the walk would, leaving the sets untouched until the
     * next materialize(). The deferred lines are never counted in
     * hits()/misses(). A log of kMaxDeferred ranges materializes.
     * @return lines the walk would have touched.
     */
    int64_t deferLines(uint64_t addr, uint64_t bytes, int64_t max_lines);

    /**
     * Apply every deferred range, leaving each set with exactly the
     * lines and lastUse clocks the eager walks would have left. Under
     * true LRU a set holds its `assoc` most recently touched distinct
     * lines, so a log of at least numSets() x assoc() lines is walked
     * newest-first, stopping once every set has `assoc` lines; a
     * shorter log cannot fill every set, so it replays eagerly.
     */
    void materialize();

    /**
     * Look up without filling on miss (used for bypass modelling).
     * Deferred installs must be materialized first.
     */
    bool probe(uint64_t addr) const;

    /**
     * The valid (line, lastUse) pairs of one set, sorted by line: all
     * of the replacement state that decides future hits, whichever
     * ways hold it. Deferred installs must be materialized first.
     */
    std::vector<std::pair<uint64_t, uint64_t>> setState(uint64_t set) const;

    /** Drop all lines and any deferred installs. */
    void flush();

    /** Zero the hit/miss counters (contents are kept). */
    void resetStats();

    uint64_t hits() const { return hits_; }
    uint64_t misses() const { return misses_; }
    uint64_t accesses() const { return hits_ + misses_; }

    /** Hit rate in [0,1]; 0 if no accesses yet. */
    double hitRate() const;

    int lineBytes() const { return lineBytes_; }
    uint64_t numSets() const { return numSets_; }
    int assoc() const { return assoc_; }

    /** Deferred ranges that force a materialize(). */
    static constexpr size_t kMaxDeferred = 4096;

  private:
    /**
     * Reduce a line index to its set. Power-of-two set counts (every
     * L1/L0I/L1I geometry, most L2 points) take the mask path; the
     * general modulo produces the same index when they coincide, so
     * the choice never changes behaviour — only the cost of the
     * per-access hardware divide.
     */
    uint64_t setIndex(uint64_t line) const
    {
        return setMask_ != 0 ? (line & setMask_) : (line % numSets_);
    }

    /** Lines of [addr, addr+bytes) a walk capped at max_lines covers. */
    int64_t lineCount(uint64_t bytes, int64_t max_lines) const;

    /** The eager install: accessLine() `count` lines from `line` on. */
    void walkLines(uint64_t line, int64_t count);

    /** materialize() for a log that may shadow its older lines. */
    void materializeSuffix();

    /** One lookup with the set index already reduced. */
    bool accessLine(uint64_t line, uint64_t set)
    {
        ++clock_;
        return scanFill(line, static_cast<size_t>(set) * assoc_) >= 0;
    }

    /**
     * Scan/fill one set with clock_ already advanced. Returns the way
     * hit (>= 0) or ~way filled (< 0). The scan order over ways is
     * unobservable — a line appears in a set at most once — so
     * callers may probe a likely way first without changing results.
     */
    int scanFill(uint64_t line, size_t base)
    {
        const uint64_t *tags = tags_.data() + base;

        // Branchless tag scan (a line appears at most once per set, so
        // scanning past a match is harmless). Two select chains keep
        // the cmov dependency half as deep as one; at most one chain
        // ever holds a real way, so max() merges them.
        int h0 = -1;
        int h1 = -1;
        int w = 0;
        for (; w + 1 < assoc_; w += 2) {
            h0 = tags[w] == line ? w : h0;
            h1 = tags[w + 1] == line ? w + 1 : h1;
        }
        if (w < assoc_)
            h0 = tags[w] == line ? w : h0;
        const int hit_w = h0 > h1 ? h0 : h1;
        if (hit_w >= 0) {
            lastUse_[base + hit_w] = clock_;
            ++hits_;
            return hit_w;
        }

        // Miss: evict the lowest-indexed way with the smallest
        // lastUse. Packing the way index into the low bits turns the
        // LRU scan into a pure u64 min reduction (ties resolve to the
        // lower way, exactly like a first-strictly-smaller scan), and
        // two independent chains halve its latency. Invalid ways
        // carry lastUse 0, so they win exactly as a valid bit would;
        // the shift cannot overflow (the ctor caps assoc at 64 and a
        // clock of 2^58 accesses is unreachable).
        const uint64_t *use = lastUse_.data() + base;
        uint64_t m0 = ~0ULL;
        uint64_t m1 = ~0ULL;
        w = 0;
        for (; w + 1 < assoc_; w += 2) {
            const uint64_t k0 = (use[w] << 6) | static_cast<uint64_t>(w);
            const uint64_t k1 =
                (use[w + 1] << 6) | static_cast<uint64_t>(w + 1);
            m0 = k0 < m0 ? k0 : m0;
            m1 = k1 < m1 ? k1 : m1;
        }
        if (w < assoc_) {
            const uint64_t k0 = (use[w] << 6) | static_cast<uint64_t>(w);
            m0 = k0 < m0 ? k0 : m0;
        }
        const int victim = static_cast<int>((m0 < m1 ? m0 : m1) & 63U);
        tags_[base + victim] = line;
        lastUse_[base + victim] = clock_;
        ++misses_;
        return ~victim;
    }

    // Structure-of-arrays way storage (set-major): the tag scan is the
    // hottest loop in the simulator and contiguous u64 tags keep it in
    // as few host cache lines as possible. A line index never equals
    // kInvalidTag (addresses are shifted right by lineShift_), and
    // valid ways always carry lastUse >= 1, so the sentinel tag plus a
    // zero lastUse reproduce a valid bit exactly.
    static constexpr uint64_t kInvalidTag = ~0ULL;

    int assoc_;
    int lineBytes_;
    int lineShift_;
    uint64_t numSets_;
    uint64_t setMask_ = 0; ///< numSets_ - 1 when pow2, else 0 (modulo)
    std::vector<uint64_t> tags_;    // numSets_ * assoc_
    std::vector<uint64_t> lastUse_; // numSets_ * assoc_
    uint64_t clock_ = 0;
    uint64_t hits_ = 0;
    uint64_t misses_ = 0;

    /** A deferred range: `count` lines from `line`, the first at
     *  clock + 1. Consecutive ranges have consecutive clocks. */
    struct Deferred
    {
        uint64_t line;
        int64_t count;
        uint64_t clock;
    };
    std::vector<Deferred> deferred_;
    uint64_t deferredLines_ = 0;

    // materializeSuffix() scratch, allocated on its first use: per set,
    // the distinct lines collected so far (newest first), their clocks
    // and how many there are.
    std::vector<uint64_t> suffixLines_;  // numSets_ * assoc_
    std::vector<uint64_t> suffixClocks_; // numSets_ * assoc_
    std::vector<uint8_t> suffixFill_;    // numSets_
};

} // namespace gnnmark

#endif // GNNMARK_SIM_CACHE_MODEL_HH
