/**
 * @file
 * Host compute kernels behind ops::gemm, ops::conv2d and ops::spmm —
 * the scalar baselines plus the register-tiled / vectorized variants
 * selected by ops::Dispatch — and the one host transpose. Exposed as
 * raw array kernels (no sim emission, no dispatch) so bench_ext_ops
 * and the calibration pass can time and cross-check them in isolation.
 *
 * Bit-compatibility contract: for a given operand set, every variant
 * of an op produces bitwise-identical fp32 output. This holds because
 * the variants only change *where* partial sums live (registers vs.
 * memory) and *which axis* is vectorized (the independent j/feature
 * axis), never the per-output-element accumulation order, and because
 * the AVX2 paths use explicit separate mul/add intrinsics (no FMA
 * contraction). The calibration pass re-verifies this at runtime and
 * panics on divergence.
 */

#ifndef GNNMARK_OPS_CPU_KERNELS_HH
#define GNNMARK_OPS_CPU_KERNELS_HH

#include <cstdint>

#include "tensor/csr.hh"
#include "tensor/sparse.hh"

namespace gnnmark {
namespace ops {
namespace kern {

/** True when the AVX2 code paths are compiled in and the CPU has
 *  AVX2; the tiled/vector kernels silently fall back to equivalent
 *  scalar register-blocked loops otherwise. */
bool simdActive();

/**
 * @{ C = A * B for row-major A [m,k], B [k,n] into zero-initialised C
 * [m,n]. `naive` is the historical loop (memory-accumulating, with a
 * zero-skip on A elements); `tiled` holds a 4x16 register tile of C
 * across the full K loop and streams B in 16-column panels (the AVX2
 * flavour adds one 4x8 tile for an 8-column remainder), keeping the
 * same kk-ascending per-element order and the same zero-skip.
 */
void gemmNaive(const float *a, const float *b, float *c, int64_t m,
               int64_t n, int64_t k);
void gemmTiled(const float *a, const float *b, float *c, int64_t m,
               int64_t n, int64_t k);
/** @} */

/** dst [cols, rows] = the transpose of row-major src [rows, cols]:
 *  pure copies, parallel over source rows. */
void transpose(const float *src, float *dst, int64_t rows, int64_t cols);

/**
 * @{ C = A * B for sparse A and row-major dense B [A.cols, f] into
 * zero-initialised C [A.rows, f]. `csrScalar` is the historical
 * edge-outer loop; `csrVector` keeps a 16-float feature strip of the
 * output row in registers across the row's edges (edge order
 * unchanged). The COO kernel walks the row-sorted entry stream with
 * per-chunk binary search; blocked-ELL walks padded slabs bounded by
 * the true per-row entry count. All four are bitwise-equal.
 */
void spmmCsrScalar(const CsrMatrix &a, const float *b, float *c,
                   int64_t f);
void spmmCsrVector(const CsrMatrix &a, const float *b, float *c,
                   int64_t f);
void spmmCoo(const CooMatrix &a, const float *b, float *c, int64_t f);
void spmmBell(const BlockedEllMatrix &a, const float *b, float *c,
              int64_t f);
/** @} */

} // namespace kern
} // namespace ops
} // namespace gnnmark

#endif // GNNMARK_OPS_CPU_KERNELS_HH
