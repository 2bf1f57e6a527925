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
    // Adjacent sets tend to hold a range's tags at the same way index
    // (they were filled during the same pass), so the previous line's
    // way is probed first — a pure scan-order shortcut (see scanFill).
    uint64_t set = setIndex(line);
    int hint = 0;
    for (int64_t i = 0; i < count; ++i) {
        const size_t base = static_cast<size_t>(set) * assoc_;
        ++clock_;
        if (tags_[base + hint] == line) {
            lastUse_[base + hint] = clock_;
        } else {
            const int r = scanFill(line, base);
            hint = r >= 0 ? r : ~r;
        }
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
        deferred_.push_back({addr >> lineShift_, count, clock_});
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
    if (deferredLines_ < numSets_ * static_cast<uint64_t>(assoc_)) {
        for (const Deferred &d : deferred_) {
            clock_ = d.clock;
            walkLines(d.line, d.count);
        }
    } else {
        materializeSuffix();
    }
    deferred_.clear();
    deferredLines_ = 0;
    clock_ = clock;
}

void
CacheModel::materializeSuffix()
{
    const size_t a = static_cast<size_t>(assoc_);
    if (suffixFill_.empty()) {
        suffixLines_.resize(numSets_ * a);
        suffixClocks_.resize(numSets_ * a);
        suffixFill_.resize(numSets_);
    }
    std::fill(suffixFill_.begin(), suffixFill_.end(), 0);

    // Newest first, collect each set's `assoc` most recently touched
    // distinct lines with the clock of their last touch; an older touch
    // of a collected line, or any line of a full set, is shadowed.
    uint64_t full = 0;
    for (auto d = deferred_.rbegin();
         d != deferred_.rend() && full < numSets_; ++d) {
        uint64_t line = d->line + static_cast<uint64_t>(d->count) - 1;
        uint64_t clock = d->clock + static_cast<uint64_t>(d->count);
        uint64_t set = setIndex(line);
        for (int64_t i = 0; i < d->count; ++i) {
            const size_t n = suffixFill_[set];
            if (n < a) {
                uint64_t *lines = suffixLines_.data() + set * a;
                if (std::find(lines, lines + n, line) == lines + n) {
                    lines[n] = line;
                    suffixClocks_[set * a + n] = clock;
                    suffixFill_[set] = static_cast<uint8_t>(n + 1);
                    if (n + 1 == a && ++full == numSets_)
                        break;
                }
            }
            --line;
            --clock;
            set = (set == 0 ? numSets_ : set) - 1;
        }
    }

    // A full set holds exactly what was collected. In the others the
    // collected lines are newer than every resident, so installing
    // them oldest first through the LRU fill keeps the right residents.
    for (uint64_t set = 0; set < numSets_; ++set) {
        const size_t base = set * a;
        const size_t n = suffixFill_[set];
        if (n == a) {
            std::copy_n(suffixLines_.data() + base, a, tags_.data() + base);
            std::copy_n(suffixClocks_.data() + base, a,
                        lastUse_.data() + base);
            continue;
        }
        for (size_t j = n; j-- > 0;) {
            clock_ = suffixClocks_[base + j];
            scanFill(suffixLines_[base + j], base);
        }
    }
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
}

} // namespace gnnmark
