/**
 * @file
 * Sparse-dense matrix multiply (SpMM) over multi-format sparse
 * adjacency matrices — the aggregation workhorse of GCN-style layers.
 */

#ifndef GNNMARK_OPS_SPMM_HH
#define GNNMARK_OPS_SPMM_HH

#include "tensor/sparse.hh"
#include "tensor/tensor.hh"

namespace gnnmark {
namespace ops {

/**
 * C = A * B for sparse A [M, N] and dense B [N, F]; returns [M, F].
 *
 * The host loop runs on the thread pool with one owner chunk per
 * output row (bitwise identical for any thread count); ops::Dispatch
 * picks the host kernel — scalar or register-strip vectorized for
 * CSR, the dedicated COO / blocked-ELL kernels otherwise — and every
 * variant produces bitwise-equal results (see ops/cpu_kernels.hh).
 *
 * The *simulated* kernel keeps the GPU mapping the paper
 * characterises: one warp per (row, 32-feature chunk), gathering B
 * rows by column index for CSR/COO — the access pattern behind
 * SpMM's poor L1 locality — while blocked-ELL trades padding waste
 * for regular slab reads.
 */
Tensor spmm(const SparseMatrix &a, const Tensor &b);

} // namespace ops
} // namespace gnnmark

#endif // GNNMARK_OPS_SPMM_HH
