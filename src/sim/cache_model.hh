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

#include "base/fast_mod.hh"

namespace gnnmark {

/**
 * A classic set-associative cache with true-LRU replacement.
 *
 * Addresses are byte addresses; the model tracks tags only (no data)
 * and keeps no hit/miss counters: access() returns each lookup's
 * outcome, and a KernelRecord's hits come from the WarpPipeline's
 * per-access results.
 *
 * Bulk installs can be deferred (deferLines) into a log. Each set
 * keeps an epoch, the number of log entries it has absorbed: access()
 * folds the unseen entries into its own set before the lookup, and
 * materialize() applies the whole log in one pass, each set from its
 * epoch on. access() materializes instead of folding while the log
 * holds fewer lines than the cache has sets, and once the folds have
 * taken as many steps as the log holds lines. Either way a set ends up
 * as the eager accessLines() walk would have left it, so a deferred
 * install is indistinguishable from the walk.
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
     * Look up (and on miss, fill) the line containing addr, after
     * bringing its set up to the deferred installs.
     * @return true on hit.
     */
    bool access(uint64_t addr)
    {
        const uint64_t line = addr >> lineShift_;
        const uint64_t set = setIndex(line);
        if (!deferred_.empty()) [[unlikely]] {
            if (epoch_[set] < deferred_.size())
                fold(set);
        }
        return accessLine(line, set);
    }

    /**
     * access() every line of [addr, addr+bytes), at most max_lines of
     * them. The state ends up identical to the equivalent per-line
     * access() loop; the sequential walk just pays the
     * set-index reduction once. This eager walk is the reference the
     * deferred install is tested against.
     * @return lines touched.
     */
    int64_t accessLines(uint64_t addr, uint64_t bytes,
                        int64_t max_lines);

    /**
     * accessLines(), deferred: logs the range and advances the clock
     * exactly as the walk would, leaving the sets untouched until an
     * access() folds them or materialize() runs. A log of kMaxDeferred
     * ranges materializes.
     * @return lines the walk would have touched.
     */
    int64_t deferLines(uint64_t addr, uint64_t bytes, int64_t max_lines);

    /**
     * Apply every deferred range, leaving each set with exactly the
     * lines and lastUse clocks the eager walks would have left; each
     * set skips the entries it has already absorbed. Under true LRU a
     * set holds its `assoc` most recently touched distinct lines, so a
     * log of at least twice numSets() x assoc() lines is walked
     * newest-first, stopping once no set can take another line; a
     * shorter log replays forward.
     */
    void materialize();

    /**
     * The valid (line, lastUse) pairs of one set, sorted by line: all
     * of the replacement state that decides future hits, whichever
     * ways hold it. Deferred installs must be materialized first.
     */
    std::vector<std::pair<uint64_t, uint64_t>> setState(uint64_t set) const;

    /** Drop all lines and any deferred installs. */
    void flush();

    uint64_t numSets() const { return numSets_; }
    int assoc() const { return assoc_; }

    /** Deferred ranges that force a materialize(). */
    static constexpr size_t kMaxDeferred = 4096;

  private:
    /**
     * Reduce a line index to its set. Power-of-two set counts (every
     * L1/L1I geometry, most L2 points) take the mask path, the others
     * (the default 3,072-set L2, the 48-set L0I) a precomputed
     * remainder; both equal line % numSets_, so the choice never
     * changes behaviour, only the cost of a hardware divide.
     */
    uint64_t setIndex(uint64_t line) const
    {
        return setMask_ != 0 ? (line & setMask_) : setMod_(line);
    }

    /**
     * A log of fewer than twice as many lines as the cache holds. The
     * newest-first walk takes at least numSets x assoc steps before it
     * can stop and then copies as many slots, more steps than a forward
     * replay of such a log.
     */
    bool shortLog() const
    {
        return deferredLines_ < 2 * numSets_ * static_cast<uint64_t>(assoc_);
    }

    /** Lines of [addr, addr+bytes) a walk capped at max_lines covers. */
    int64_t lineCount(uint64_t bytes, int64_t max_lines) const;

    /** The eager install: accessLine() `count` lines from `line` on. */
    void walkLines(uint64_t line, int64_t count);

    /** materialize() for a log that may shadow its older lines. */
    void materializeSuffix();

    /**
     * Bring one set up to the log: newest first, collect up to `assoc`
     * distinct lines from the entries it has not absorbed, with the
     * clocks the eager walk gives them, and install them.
     */
    void fold(uint64_t set);

    /**
     * Install `n` lines collected newest-first, each newer than every
     * resident: a full set takes them as they are, a partial one
     * LRU-fills them oldest-first over its residents.
     */
    void installSet(uint64_t set, const uint64_t *lines,
                    const uint64_t *clocks, size_t n);

    /** One lookup with the set index already reduced. */
    bool accessLine(uint64_t line, uint64_t set)
    {
        ++clock_;
        return scanFill(line, static_cast<size_t>(set) * assoc_) >= 0;
    }

    /**
     * One step of a forward walk: scanFill() with clock_ already
     * advanced, probing way `hint` first. Adjacent sets tend to hold a
     * range's tags at the same way index (they were filled during the
     * same pass), so a walk passes on the way it last used — a pure
     * scan-order shortcut (see scanFill). @return the line's way.
     */
    int walkStep(uint64_t line, size_t base, int hint)
    {
        if (tags_[base + hint] == line) {
            lastUse_[base + hint] = clock_;
            return hint;
        }
        const int r = scanFill(line, base);
        return r >= 0 ? r : ~r;
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
    FastMod setMod_{1};    ///< line % numSets_
    std::vector<uint64_t> tags_;    // numSets_ * assoc_
    std::vector<uint64_t> lastUse_; // numSets_ * assoc_
    uint64_t clock_ = 0;

    /** A deferred range: `count` lines from `line` (in set `set`), the
     *  first at clock + 1. Later ranges have later clocks. */
    struct Deferred
    {
        uint64_t line;
        int64_t count;
        uint64_t clock;
        uint64_t set;
    };
    std::vector<Deferred> deferred_;
    uint64_t deferredLines_ = 0;

    // Per set, the log entries it has absorbed (numSets_, allocated on
    // the first deferLines()). Every resident of a set is older than
    // the entries from its epoch on.
    std::vector<uint32_t> epoch_;
    // fold() scratch, allocated with epoch_: the lines one set collects
    // and their clocks.
    std::vector<uint64_t> foldLines_;  // assoc_
    std::vector<uint64_t> foldClocks_; // assoc_
    // Entries walked and lines visited by folds since the log was last
    // applied (0: every epoch is 0); at deferredLines_ the next fold
    // applies the log instead.
    uint64_t foldSteps_ = 0;

    // materializeSuffix() scratch, allocated on its first use: per set,
    // the distinct lines collected so far (newest first), their clocks
    // and how many there are; per epoch, the sets still collecting.
    std::vector<uint64_t> suffixLines_;  // numSets_ * assoc_
    std::vector<uint64_t> suffixClocks_; // numSets_ * assoc_
    std::vector<uint8_t> suffixFill_;    // numSets_
    std::vector<uint32_t> suffixOpen_;   // log entries + 1
};

} // namespace gnnmark

#endif // GNNMARK_SIM_CACHE_MODEL_HH
