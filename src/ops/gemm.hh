/**
 * @file
 * Dense matrix multiply operators (GEMM / GEMV), the workhorses of the
 * update (MLP) phase of GNN training.
 */

#ifndef GNNMARK_OPS_GEMM_HH
#define GNNMARK_OPS_GEMM_HH

#include "tensor/tensor.hh"

namespace gnnmark {
namespace ops {

/** Transpose options for ops::gemm (designated-initialiser friendly:
 *  `gemm(a, b, {.trans_b = true})`). */
struct GemmOpts
{
    bool trans_a = false;
    bool trans_b = false;
};

/**
 * C = op(A) * op(B) where op transposes when the corresponding
 * GemmOpts flag is set. Shapes: op(A) is [M, K], op(B) is [K, N];
 * returns [M, N]. The host kernel (naive vs. register-tiled) is
 * picked per call by ops::Dispatch from the operand shape and the
 * sampled sparsity of op(A); all variants are bitwise-equal and the
 * simulated kernel (cuBLAS-style 64x64 tiles, split-K for skinny
 * shapes) is the same whichever host variant ran.
 */
Tensor gemm(const Tensor &a, const Tensor &b, GemmOpts opts = {});

} // namespace ops
} // namespace gnnmark

#endif // GNNMARK_OPS_GEMM_HH
