/** @file FastMod against the hardware remainder. */

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <vector>

#include "base/fast_mod.hh"
#include "base/rng.hh"

using namespace gnnmark;

namespace {

constexpr uint64_t kMax = std::numeric_limits<uint64_t>::max();

/** Numerators around the places a remainder changes character. */
std::vector<uint64_t>
edgeInputs(uint64_t d)
{
    std::vector<uint64_t> in = {0,         1,         2,
                                d - 1,     d,         d + 1,
                                2 * d - 1, 2 * d,     uint64_t{1} << 32,
                                1ull << 63, kMax - 1, kMax};
    const uint64_t top = kMax / d * d; // the largest multiple of d
    for (uint64_t delta : {0ull, 1ull, 2ull}) {
        in.push_back(top - delta);
        in.push_back(top + delta); // wraps past kMax for small deltas
    }
    return in;
}

} // namespace

TEST(FastMod, MatchesTheHardwareRemainder)
{
    // Cache set counts (48, 1,536, 2,560, 3,072, 6,144), code sizes,
    // and divisors near 2^32, 2^63 and 2^64.
    const uint64_t divisors[] = {3,
                                 5,
                                 7,
                                 48,
                                 1000,
                                 1536,
                                 2560,
                                 3072,
                                 6144,
                                 12345,
                                 (1ull << 32) - 1,
                                 (1ull << 32) + 1,
                                 1000000000039ull,
                                 (1ull << 63) - 1,
                                 (1ull << 63) + 1,
                                 0xfffffffffffffff1ull,
                                 kMax - 2,
                                 kMax - 1,
                                 kMax};
    Rng rng(2019);
    for (const uint64_t d : divisors) {
        const FastMod mod(d);
        for (const uint64_t a : edgeInputs(d))
            ASSERT_EQ(mod(a), a % d) << a << " % " << d;
        for (int i = 0; i < 100000; ++i) {
            // Full-width draws, and draws of a random width so small
            // numerators are covered too.
            const uint64_t wide = rng.next();
            const uint64_t narrow = rng.next() >> (rng.next() % 64);
            ASSERT_EQ(mod(wide), wide % d) << wide << " % " << d;
            ASSERT_EQ(mod(narrow), narrow % d) << narrow << " % " << d;
        }
    }
}

TEST(FastMod, DivisorsOneAndTwo)
{
    const FastMod one(1);
    const FastMod two(2);
    const uint64_t inputs[] = {0, 1, 2, 12345, kMax - 1, kMax};
    for (const uint64_t a : inputs) {
        EXPECT_EQ(one(a), 0u);
        EXPECT_EQ(two(a), a % 2);
    }
}
