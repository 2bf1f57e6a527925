/**
 * @file
 * Differentiable operator wrappers (namespace ag): each calls the
 * instrumented ops:: forward and registers a backward closure that
 * itself calls instrumented ops::, so both halves of training emit
 * kernels into the device model.
 */

#ifndef GNNMARK_OPS_VAR_OPS_HH
#define GNNMARK_OPS_VAR_OPS_HH

#include <cstdint>
#include <vector>

#include "ops/gemm.hh"
#include "ops/variable.hh"
#include "tensor/sparse.hh"

namespace gnnmark {
namespace ag {

/** @{ Arithmetic. */
Variable add(const Variable &a, const Variable &b);
Variable sub(const Variable &a, const Variable &b);
Variable mul(const Variable &a, const Variable &b);
Variable div(const Variable &a, const Variable &b);
Variable scale(const Variable &a, float alpha);
Variable addScalar(const Variable &a, float alpha);
/** @} */

/** @{ Activations. */
Variable relu(const Variable &a);
Variable prelu(const Variable &a, const Variable &slope);
Variable sigmoid(const Variable &a);
Variable tanh(const Variable &a);
Variable exp(const Variable &a);
/** @} */

/** C = op(A) op(B) (see ops::gemm). */
Variable gemm(const Variable &a, const Variable &b,
              ops::GemmOpts opts = {});

/**
 * C = A B for a constant sparse A; `a_t` is A transposed (used by
 * the backward pass: dB = A^T dC). Both operands may be in any
 * SparseFormat; copies share storage, so capturing them is cheap.
 */
Variable spmm(const SparseMatrix &a, const SparseMatrix &a_t,
              const Variable &b);

/** y = x + bias broadcast over rows. */
Variable addBiasRows(const Variable &x, const Variable &bias);

/** Row lookup out[i] = a[idx[i]] (IndexSelect class). */
Variable indexSelectRows(const Variable &a,
                         const std::vector<int32_t> &idx);

/** Row lookup classified as a Gather (edge endpoint fetch). */
Variable gatherRows(const Variable &a, const std::vector<int32_t> &idx);

/**
 * Scatter-sum src rows into `num_rows` bins: out[idx[i]] += src[i].
 * The backward gathers grad rows back to the sources.
 */
Variable scatterSumRows(const Variable &src,
                        const std::vector<int32_t> &idx, int64_t num_rows);

/** Segmented sum over CSR-style offsets (child-sum aggregation). */
Variable segmentSumRows(const Variable &src,
                        const std::vector<int32_t> &offsets);

/** Segmented mean over CSR-style offsets (graph readout pooling). */
Variable segmentMeanRows(const Variable &src,
                         const std::vector<int32_t> &offsets);

/** Materialised 2-D transpose. */
Variable transpose2d(const Variable &a);

/** Multiply each row of a [N, F] variable by constant v [N]. */
Variable mulRowsByConst(const Variable &a, const Tensor &v);

/** Concatenate along rows. */
Variable concatRows(const std::vector<Variable> &parts);

/** Concatenate two [N, Fi] tensors along columns. */
Variable concatCols(const Variable &a, const Variable &b);

/** Columns [begin, end) of a [N, F] tensor. */
Variable sliceCols(const Variable &a, int64_t begin, int64_t end);

/** View with a new shape. */
Variable reshape(const Variable &a, std::vector<int64_t> shape);

/** Row-wise softmax / log-softmax. */
Variable softmaxRows(const Variable &a);
Variable logSoftmaxRows(const Variable &a);

/** Mean over all elements -> scalar [1]. */
Variable meanAll(const Variable &a);

/** Sum over all elements -> scalar [1]. */
Variable sumAll(const Variable &a);

/** Per-row mean of [N, F] -> [N]. */
Variable meanRows(const Variable &a);

/** Negative log-likelihood of log-probs at the labels -> scalar. */
Variable nllLoss(const Variable &log_probs,
                 const std::vector<int32_t> &labels);

/** Mean squared error -> scalar. */
Variable mseLoss(const Variable &pred, const Variable &target);

/** Numerically-stable binary cross-entropy on logits -> scalar. */
Variable bceWithLogits(const Variable &logits, const Tensor &targets);

/** 2-D convolution, stride 1, zero padding `pad`. */
Variable conv2d(const Variable &input, const Variable &weight,
                int pad = 0);

/** Train-mode batch norm over [N, F]. */
Variable batchNorm(const Variable &x, const Variable &gamma,
                   const Variable &beta, float eps = 1e-5f);

/** Row-wise layer norm over [N, F]. */
Variable layerNorm(const Variable &x, const Variable &gamma,
                   const Variable &beta, float eps = 1e-5f);

} // namespace ag
} // namespace gnnmark

#endif // GNNMARK_OPS_VAR_OPS_HH
