#include "sim/cache_model.hh"

#include <algorithm>
#include <bit>

#include "base/logging.hh"

namespace gnnmark {

CacheModel::CacheModel(uint64_t size_bytes, int assoc, int line_bytes)
    : assoc_(assoc), lineBytes_(line_bytes)
{
    GNN_ASSERT(assoc > 0 && assoc <= 64,
               "cache associativity must be in [1, 64]");
    GNN_ASSERT(line_bytes > 0 && std::has_single_bit(
                   static_cast<uint64_t>(line_bytes)),
               "line size must be a power of two");
    GNN_ASSERT(size_bytes % (static_cast<uint64_t>(line_bytes) * assoc) == 0,
               "cache size must be a multiple of line*assoc");
    lineShift_ = std::countr_zero(static_cast<uint64_t>(line_bytes));
    numSets_ = size_bytes / (static_cast<uint64_t>(line_bytes) * assoc);
    GNN_ASSERT(numSets_ > 0, "cache must have at least one set");
    if (std::has_single_bit(numSets_))
        setMask_ = numSets_ - 1;
    setMod_ = FastMod(numSets_);
    tags_.assign(numSets_ * assoc_, kInvalidTag);
    lastUse_.assign(numSets_ * assoc_, 0);
}

int64_t
CacheModel::lineCount(uint64_t bytes, int64_t max_lines) const
{
    const int64_t span = static_cast<int64_t>(
        (bytes + static_cast<uint64_t>(lineBytes_) - 1) >> lineShift_);
    return std::min<int64_t>(span, max_lines);
}

int64_t
CacheModel::accessLines(uint64_t addr, uint64_t bytes, int64_t max_lines)
{
    materialize();
    const int64_t count = lineCount(bytes, max_lines);
    walkLines(addr >> lineShift_, count);
    return count;
}

void
CacheModel::walkLines(uint64_t line, int64_t count)
{
    // Consecutive lines map to consecutive sets, so one reduction
    // seeds an increment-and-wrap walk; each step is exactly access().
    uint64_t set = setIndex(line);
    int hint = 0;
    for (int64_t i = 0; i < count; ++i) {
        ++clock_;
        hint = walkStep(line, static_cast<size_t>(set) * assoc_, hint);
        ++line;
        if (++set == numSets_)
            set = 0;
    }
}

int64_t
CacheModel::deferLines(uint64_t addr, uint64_t bytes, int64_t max_lines)
{
    const int64_t count = lineCount(bytes, max_lines);
    if (count > 0) {
        if (epoch_.empty()) {
            epoch_.assign(numSets_, 0);
            foldLines_.assign(assoc_, 0);
            foldClocks_.assign(assoc_, 0);
        }
        const uint64_t line = addr >> lineShift_;
        deferred_.push_back({line, count, clock_, setIndex(line)});
        deferredLines_ += static_cast<uint64_t>(count);
        clock_ += static_cast<uint64_t>(count);
        if (deferred_.size() == kMaxDeferred)
            materialize();
    }
    return count;
}

void
CacheModel::materialize()
{
    if (deferred_.empty())
        return;
    // The clock already stands where the eager walks would leave it;
    // the replays below rewind it.
    const uint64_t clock = clock_;
    if (!shortLog()) {
        materializeSuffix();
    } else {
        // The eager walk, each set from its epoch on.
        int hint = 0;
        for (size_t i = 0; i < deferred_.size(); ++i) {
            const Deferred &d = deferred_[i];
            uint64_t line = d.line;
            uint64_t set = d.set;
            clock_ = d.clock;
            for (int64_t k = 0; k < d.count; ++k) {
                ++clock_;
                if (epoch_[set] <= i) {
                    hint = walkStep(line, static_cast<size_t>(set) * assoc_,
                                    hint);
                }
                ++line;
                if (++set == numSets_)
                    set = 0;
            }
        }
    }
    deferred_.clear();
    deferredLines_ = 0;
    if (foldSteps_ != 0) {
        foldSteps_ = 0;
        std::fill(epoch_.begin(), epoch_.end(), 0);
    }
    clock_ = clock;
}

void
CacheModel::materializeSuffix()
{
    const size_t a = static_cast<size_t>(assoc_);
    const size_t entries = deferred_.size();
    if (suffixFill_.empty()) {
        suffixLines_.resize(numSets_ * a);
        suffixClocks_.resize(numSets_ * a);
        suffixFill_.resize(numSets_);
    }
    std::fill(suffixFill_.begin(), suffixFill_.end(), 0);

    // A set collects from the entries it has not absorbed. open[e] is
    // the number of sets of epoch e that still collect: they stop once
    // full, or once the walk passes below entry e.
    std::vector<uint32_t> &open = suffixOpen_;
    open.assign(entries + 1, 0);
    for (uint64_t set = 0; set < numSets_; ++set)
        ++open[epoch_[set]];
    uint64_t live = numSets_ - open[entries];

    // Newest first, collect each set's `assoc` most recently touched
    // distinct lines with the clock of their last touch; an older touch
    // of a collected line, or any line of a full set, is shadowed.
    for (size_t i = entries; i-- > 0 && live > 0;) {
        const Deferred &d = deferred_[i];
        uint64_t line = d.line + static_cast<uint64_t>(d.count) - 1;
        uint64_t clock = d.clock + static_cast<uint64_t>(d.count);
        uint64_t set = setIndex(line);
        for (int64_t k = 0; k < d.count; ++k) {
            const size_t n = suffixFill_[set];
            if (n < a && epoch_[set] <= i) {
                uint64_t *lines = suffixLines_.data() + set * a;
                if (std::find(lines, lines + n, line) == lines + n) {
                    lines[n] = line;
                    suffixClocks_[set * a + n] = clock;
                    suffixFill_[set] = static_cast<uint8_t>(n + 1);
                    if (n + 1 == a) {
                        --open[epoch_[set]];
                        if (--live == 0)
                            break;
                    }
                }
            }
            --line;
            --clock;
            set = (set == 0 ? numSets_ : set) - 1;
        }
        live -= open[i];
    }

    for (uint64_t set = 0; set < numSets_; ++set) {
        installSet(set, suffixLines_.data() + set * a,
                   suffixClocks_.data() + set * a, suffixFill_[set]);
    }
}

void
CacheModel::fold(uint64_t set)
{
    // A fold steps past every unseen entry that misses its set. A log
    // of fewer lines than the cache has sets gives a set less than one
    // line on average for that walk, so it is applied whole, in one
    // pass. Once the folds of a longer log have taken as many steps as
    // it holds lines, one pass (at most a step per line) costs no more
    // than they already have.
    if (deferredLines_ < numSets_ || foldSteps_ >= deferredLines_) {
        materialize();
        return;
    }
    const size_t a = static_cast<size_t>(assoc_);
    uint64_t *lines = foldLines_.data();
    uint64_t *clocks = foldClocks_.data();
    size_t n = 0;
    uint64_t visited = 0;
    const size_t end = deferred_.size();
    size_t i = end;
    while (i > epoch_[set] && n < a) {
        const Deferred &d = deferred_[--i];
        const uint64_t count = static_cast<uint64_t>(d.count);
        // The offset of the entry's first line in this set, then of its
        // last; the lines between lie numSets_ apart.
        uint64_t k = set >= d.set ? set - d.set : set + numSets_ - d.set;
        if (k >= count)
            continue;
        if (count - k > numSets_)
            k += (count - 1 - k) / numSets_ * numSets_;
        for (;;) {
            ++visited;
            const uint64_t line = d.line + k;
            if (std::find(lines, lines + n, line) == lines + n) {
                lines[n] = line;
                clocks[n] = d.clock + 1 + k;
                if (++n == a)
                    break;
            }
            if (k < numSets_)
                break;
            k -= numSets_;
        }
    }
    foldSteps_ += (end - i) + visited;
    epoch_[set] = static_cast<uint32_t>(end);
    installSet(set, lines, clocks, n);
}

void
CacheModel::installSet(uint64_t set, const uint64_t *lines,
                       const uint64_t *clocks, size_t n)
{
    const size_t base = static_cast<size_t>(set) * assoc_;
    if (n == static_cast<size_t>(assoc_)) {
        std::copy_n(lines, n, tags_.data() + base);
        std::copy_n(clocks, n, lastUse_.data() + base);
        return;
    }
    const uint64_t clock = clock_;
    for (size_t j = n; j-- > 0;) {
        clock_ = clocks[j];
        scanFill(lines[j], base);
    }
    clock_ = clock;
}

std::vector<std::pair<uint64_t, uint64_t>>
CacheModel::setState(uint64_t set) const
{
    GNN_ASSERT(deferred_.empty(),
               "setState() with deferred installs pending");
    GNN_ASSERT(set < numSets_, "set %llu out of range",
               static_cast<unsigned long long>(set));
    std::vector<std::pair<uint64_t, uint64_t>> state;
    const size_t base = static_cast<size_t>(set) * assoc_;
    for (int w = 0; w < assoc_; ++w) {
        if (lastUse_[base + w] != 0)
            state.emplace_back(tags_[base + w], lastUse_[base + w]);
    }
    std::sort(state.begin(), state.end());
    return state;
}

void
CacheModel::flush()
{
    tags_.assign(tags_.size(), kInvalidTag);
    lastUse_.assign(lastUse_.size(), 0);
    deferred_.clear();
    deferredLines_ = 0;
    foldSteps_ = 0;
    std::fill(epoch_.begin(), epoch_.end(), 0);
}

} // namespace gnnmark
