/**
 * @file
 * Remainder by a fixed 64-bit divisor without a hardware divide.
 */

#ifndef GNNMARK_BASE_FAST_MOD_HH
#define GNNMARK_BASE_FAST_MOD_HH

#include <cstdint>

namespace gnnmark {

/**
 * `a % d` for a divisor fixed at construction, by Lemire, Kaser and
 * Kurz's direct remainder ("Faster Remainder by Direct Computation",
 * 2019): with M = ceil(2^128 / d), the fractional part M * a mod 2^128
 * times d, shifted down 128 bits, is the remainder. 128 fractional
 * bits cover every 64-bit numerator and divisor, so it is exact for all
 * of them; d = 1 wraps M to 0, which yields the right remainder 0.
 * A 64-bit divide costs tens of cycles; this costs a few multiplies.
 */
class FastMod
{
    __extension__ typedef unsigned __int128 U128;

  public:
    /** @param d The divisor; must be > 0. */
    explicit FastMod(uint64_t d) : d_(d), m_(~static_cast<U128>(0) / d + 1)
    {
    }

    /** a % d. */
    uint64_t
    operator()(uint64_t a) const
    {
        const U128 frac = m_ * a;
        // The top 64 bits of the 192-bit frac * d_, from two 64x64
        // products; their sum stays below 2^128.
        const U128 low = static_cast<U128>(static_cast<uint64_t>(frac)) * d_;
        const U128 high =
            static_cast<U128>(static_cast<uint64_t>(frac >> 64)) * d_;
        return static_cast<uint64_t>((high + (low >> 64)) >> 64);
    }

  private:
    uint64_t d_;
    U128 m_;
};

} // namespace gnnmark

#endif // GNNMARK_BASE_FAST_MOD_HH
