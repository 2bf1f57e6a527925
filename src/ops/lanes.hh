/**
 * @file
 * Fixed-width lane loops for the memory-bound host kernels: the
 * element-wise maps, batch norm, scatter-add and the row updates of
 * the naive GEMM.
 *
 * GCC 12 at -O2 vectorizes under its "very-cheap" cost model, which
 * rejects any loop that needs a scalar epilogue or a runtime alias
 * check, so a plain `for (i < n) c[i] = f(a[i])` runs scalar. A block
 * of exactly kLanes iterations needs no epilogue, and operands that
 * are __restrict function parameters need no alias check, so every
 * block compiles to packed SSE; the remainder runs as a scalar tail.
 * The loads and stores must sit in the restrict-qualified function's
 * own body: reached through a lambda's by-reference captures, they
 * lose the restrict guarantee once the function is inlined, and the
 * blocks stay scalar.
 *
 * Bit-compatibility: the lanes of a block are independent, so each
 * output element is computed by exactly the scalar expression it
 * would get in a plain loop. A block may accumulate into a per-lane
 * slot (a column sum), which keeps that slot's ascending order; it
 * must never reduce across lanes, which would reassociate.
 */

#ifndef GNNMARK_OPS_LANES_HH
#define GNNMARK_OPS_LANES_HH

#include <cstdint>

namespace gnnmark {
namespace ops {

/** Elements per block: two SSE vectors of fp32, or one AVX vector
 *  where a helper is inlined into an AVX2 kernel. */
constexpr int64_t kLanes = 8;

/**
 * c[i] = f(in[i]...) for i in [0, n). `c` must not overlap any input;
 * the inputs may alias each other, since they are only read.
 */
template <typename F, typename... In>
inline void
mapLanes(float *__restrict c, int64_t n, F f, const In *__restrict... in)
{
    int64_t i = 0;
    for (; i + kLanes <= n; i += kLanes) {
        for (int64_t l = 0; l < kLanes; ++l)
            c[i + l] = f(in[i + l]...);
    }
    for (; i < n; ++i)
        c[i] = f(in[i]...);
}

/** dst[i] += src[i] for i in [0, n); the arrays must not overlap. */
inline void
addLanes(float *__restrict dst, const float *__restrict src, int64_t n)
{
    int64_t i = 0;
    for (; i + kLanes <= n; i += kLanes) {
        for (int64_t l = 0; l < kLanes; ++l)
            dst[i + l] += src[i + l];
    }
    for (; i < n; ++i)
        dst[i] += src[i];
}

/** dst[i] += a * src[i], a separate multiply and add, for i in
 *  [0, n); the arrays must not overlap. */
inline void
axpyLanes(float *__restrict dst, float a, const float *__restrict src,
          int64_t n)
{
    int64_t i = 0;
    for (; i + kLanes <= n; i += kLanes) {
        for (int64_t l = 0; l < kLanes; ++l)
            dst[i + l] += a * src[i + l];
    }
    for (; i < n; ++i)
        dst[i] += a * src[i];
}

/** True when [a, a + na) and [b, b + nb) share no float. */
inline bool
disjoint(const float *a, int64_t na, const float *b, int64_t nb)
{
    const auto pa = reinterpret_cast<uintptr_t>(a);
    const auto pb = reinterpret_cast<uintptr_t>(b);
    return pa + static_cast<uintptr_t>(na) * sizeof(float) <= pb ||
           pb + static_cast<uintptr_t>(nb) * sizeof(float) <= pa;
}

} // namespace ops
} // namespace gnnmark

#endif // GNNMARK_OPS_LANES_HH
