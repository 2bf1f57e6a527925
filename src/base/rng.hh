/**
 * @file
 * Deterministic random number generation.
 *
 * All stochastic behaviour in the suite (dataset synthesis, samplers,
 * weight init, dropout) flows through Rng so that every experiment is
 * reproducible from a single seed.
 */

#ifndef GNNMARK_BASE_RNG_HH
#define GNNMARK_BASE_RNG_HH

#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace gnnmark {

/**
 * Complete serialisable state of an Rng: the xoshiro256** words plus
 * the cached Box-Muller spare, so a restored generator reproduces the
 * exact stream — including a pending normal() value.
 */
struct RngState
{
    std::array<uint64_t, 4> s{};
    bool hasSpareNormal = false;
    double spareNormal = 0.0;

    bool
    operator==(const RngState &o) const
    {
        return s == o.s && hasSpareNormal == o.hasSpareNormal &&
               spareNormal == o.spareNormal;
    }
};

/**
 * xoshiro256** generator with convenience distributions.
 *
 * Not a cryptographic generator; chosen for speed and reproducibility
 * across platforms (no dependence on libstdc++ distribution internals).
 */
class Rng
{
  public:
    /** Construct from a seed; the same seed yields the same stream. */
    explicit Rng(uint64_t seed = 0x9e3779b97f4a7c15ULL);

    /**
     * Next raw 64-bit value. Inline, like uniform() and bernoulli():
     * the warp pipeline draws once per ALU, shared-memory, load and
     * atomic op it issues.
     */
    uint64_t
    next()
    {
        const uint64_t result = std::rotl(s_[1] * 5, 7) * 9;
        const uint64_t t = s_[1] << 17;
        s_[2] ^= s_[0];
        s_[3] ^= s_[1];
        s_[1] ^= s_[2];
        s_[0] ^= s_[3];
        s_[2] ^= t;
        s_[3] = std::rotl(s_[3], 45);
        return result;
    }

    /** Uniform double in [0, 1). */
    double
    uniform()
    {
        return static_cast<double>(next() >> 11) * 0x1.0p-53;
    }

    /** Uniform float in [lo, hi). */
    float uniform(float lo, float hi);

    /** Uniform integer in [0, n). Requires n > 0. */
    uint64_t randint(uint64_t n);

    /** Uniform integer in [lo, hi] inclusive. Requires lo <= hi. */
    int64_t randint(int64_t lo, int64_t hi);

    /** Standard normal via Box-Muller. */
    double normal();

    /** Normal with given mean and standard deviation. */
    double normal(double mean, double stddev);

    /** Bernoulli trial with probability p of returning true. */
    bool bernoulli(double p) { return uniform() < p; }

    /** Sample from a (unnormalised) discrete weight vector. */
    size_t discrete(const std::vector<double> &weights);

    /** Fisher-Yates shuffle. */
    template <typename T>
    void
    shuffle(std::vector<T> &v)
    {
        for (size_t i = v.size(); i > 1; --i) {
            size_t j = randint(static_cast<uint64_t>(i));
            std::swap(v[i - 1], v[j]);
        }
    }

    /** Random permutation of [0, n). */
    std::vector<int32_t> permutation(int32_t n);

    /**
     * Derive the `stream_id`-th sub-stream deterministically, without
     * advancing this generator. split() is a pure function of (current
     * state, stream_id): any worker holding an equal-state Rng derives
     * bit-identical children for equal ids, which is what lets chunked
     * generators seed each work unit independently of thread count and
     * chunk partitioning. Children of distinct ids are statistically
     * independent streams.
     */
    Rng split(uint64_t stream_id) const;

    /** Snapshot the full generator state (checkpoint/resume). */
    RngState state() const;

    /** Restore a snapshot; the stream continues exactly from it. */
    void setState(const RngState &state);

  private:
    uint64_t s_[4];
    bool hasSpareNormal_ = false;
    double spareNormal_ = 0.0;
};

} // namespace gnnmark

#endif // GNNMARK_BASE_RNG_HH
