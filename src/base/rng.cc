#include "base/rng.hh"

#include <cmath>

#include "base/logging.hh"

namespace gnnmark {

namespace {

/** splitmix64, used to expand the seed into xoshiro state. */
uint64_t
splitmix64(uint64_t &x)
{
    x += 0x9e3779b97f4a7c15ULL;
    uint64_t z = x;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

} // namespace

Rng::Rng(uint64_t seed)
{
    uint64_t x = seed;
    for (auto &s : s_)
        s = splitmix64(x);
}

float
Rng::uniform(float lo, float hi)
{
    return lo + static_cast<float>(uniform()) * (hi - lo);
}

uint64_t
Rng::randint(uint64_t n)
{
    GNN_ASSERT(n > 0, "randint bound must be positive");
    // Rejection sampling to avoid modulo bias.
    const uint64_t threshold = (0ULL - n) % n;
    for (;;) {
        uint64_t r = next();
        if (r >= threshold)
            return r % n;
    }
}

int64_t
Rng::randint(int64_t lo, int64_t hi)
{
    GNN_ASSERT(lo <= hi, "randint range is empty");
    return lo + static_cast<int64_t>(
        randint(static_cast<uint64_t>(hi - lo) + 1));
}

double
Rng::normal()
{
    if (hasSpareNormal_) {
        hasSpareNormal_ = false;
        return spareNormal_;
    }
    double u1 = 0.0;
    while (u1 == 0.0)
        u1 = uniform();
    double u2 = uniform();
    double mag = std::sqrt(-2.0 * std::log(u1));
    spareNormal_ = mag * std::sin(2.0 * M_PI * u2);
    hasSpareNormal_ = true;
    return mag * std::cos(2.0 * M_PI * u2);
}

double
Rng::normal(double mean, double stddev)
{
    return mean + stddev * normal();
}

size_t
Rng::discrete(const std::vector<double> &weights)
{
    GNN_ASSERT(!weights.empty(), "discrete() needs at least one weight");
    double total = 0.0;
    for (double w : weights)
        total += w;
    GNN_ASSERT(total > 0.0, "discrete() weights must sum to > 0");
    double r = uniform() * total;
    for (size_t i = 0; i < weights.size(); ++i) {
        r -= weights[i];
        if (r <= 0.0)
            return i;
    }
    return weights.size() - 1;
}

std::vector<int32_t>
Rng::permutation(int32_t n)
{
    std::vector<int32_t> v(n);
    for (int32_t i = 0; i < n; ++i)
        v[i] = i;
    shuffle(v);
    return v;
}

Rng
Rng::split(uint64_t stream_id) const
{
    // Funnel the full state and the stream id through splitmix64 so
    // adjacent ids land in unrelated regions of the seed space. The
    // parent state is read, never advanced.
    uint64_t x = stream_id ^ 0xa0761d6478bd642fULL;
    uint64_t h = splitmix64(x);
    for (uint64_t word : s_) {
        x ^= word;
        h ^= splitmix64(x);
    }
    return Rng(h);
}

RngState
Rng::state() const
{
    RngState st;
    for (size_t i = 0; i < st.s.size(); ++i)
        st.s[i] = s_[i];
    st.hasSpareNormal = hasSpareNormal_;
    st.spareNormal = spareNormal_;
    return st;
}

void
Rng::setState(const RngState &state)
{
    for (size_t i = 0; i < state.s.size(); ++i)
        s_[i] = state.s[i];
    hasSpareNormal_ = state.hasSpareNormal;
    spareNormal_ = state.spareNormal;
}

} // namespace gnnmark
