/**
 * @file
 * Bounded LRU embedding cache backing the fallback tier: when a
 * request cannot be served at full fidelity (replica timeouts, open
 * breakers, infeasible deadline), a cached — possibly stale —
 * embedding for its item is the degraded answer. Hit/miss/eviction
 * counts feed the serving report's fallback telemetry.
 */

#ifndef GNNMARK_SERVE_CACHE_HH
#define GNNMARK_SERVE_CACHE_HH

#include <cstddef>
#include <cstdint>
#include <list>
#include <unordered_map>

namespace gnnmark {
namespace serve {

/** Fixed-capacity LRU map from item id to its last embedding. */
class EmbeddingCache
{
  public:
    explicit EmbeddingCache(size_t capacity);

    /**
     * Look `item` up; a hit refreshes recency and writes the cached
     * value to `value_out` (may be null). Counts a hit or a miss.
     */
    bool lookup(int32_t item, float *value_out = nullptr);

    /** Insert/refresh `item`, evicting the LRU entry when full. */
    void insert(int32_t item, float value);

    size_t size() const { return map_.size(); }

    int64_t hits() const { return hits_; }
    int64_t misses() const { return misses_; }
    int64_t evictions() const { return evictions_; }

    /** Hit fraction over all lookups (0 when never queried). */
    double hitRate() const;

  private:
    struct Entry
    {
        int32_t item;
        float value;
    };

    size_t capacity_;
    /** Most-recently-used first. */
    std::list<Entry> lru_;
    std::unordered_map<int32_t, std::list<Entry>::iterator> map_;
    int64_t hits_ = 0;
    int64_t misses_ = 0;
    int64_t evictions_ = 0;
};

} // namespace serve
} // namespace gnnmark

#endif // GNNMARK_SERVE_CACHE_HH
