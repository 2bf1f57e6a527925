/**
 * @file
 * Element-wise operators (the paper's "element-wise" class): maps over
 * tensors such as add, mul, activations, dropout and copies. Each
 * computes on the host and emits a streaming kernel to the bound GPU.
 */

#ifndef GNNMARK_OPS_ELEMENTWISE_HH
#define GNNMARK_OPS_ELEMENTWISE_HH

#include "base/rng.hh"
#include "tensor/tensor.hh"

namespace gnnmark {
namespace ops {

/** c = a + b (shapes must match). */
Tensor add(const Tensor &a, const Tensor &b);

/** c = a - b. */
Tensor sub(const Tensor &a, const Tensor &b);

/** c = a * b (Hadamard). */
Tensor mul(const Tensor &a, const Tensor &b);

/** c = a / b (Hadamard; caller guarantees b != 0). */
Tensor div(const Tensor &a, const Tensor &b);

/** c = alpha * a. */
Tensor scale(const Tensor &a, float alpha);

/** c = a + alpha. */
Tensor addScalar(const Tensor &a, float alpha);

/** dst += src, in place (gradient accumulation). */
void addInto(Tensor &dst, const Tensor &src);

/** c = max(a, 0). */
Tensor relu(const Tensor &a);

/** grad of relu: g * (a > 0). */
Tensor reluGrad(const Tensor &grad_out, const Tensor &a);

/** PReLU with a single learnable slope: a >= 0 ? a : slope * a. */
Tensor prelu(const Tensor &a, float slope);

/** grad of prelu wrt input. */
Tensor preluGradInput(const Tensor &grad_out, const Tensor &a,
                      float slope);

/** grad of prelu wrt the slope (a scalar; summed over elements). */
float preluGradSlope(const Tensor &grad_out, const Tensor &a);

/** Logistic sigmoid. */
Tensor sigmoid(const Tensor &a);

/** grad of sigmoid given its output y: g * y * (1 - y). */
Tensor sigmoidGrad(const Tensor &grad_out, const Tensor &y);

/** Hyperbolic tangent. */
Tensor tanh(const Tensor &a);

/** grad of tanh given its output y: g * (1 - y^2). */
Tensor tanhGrad(const Tensor &grad_out, const Tensor &y);

/** Natural exponential. */
Tensor exp(const Tensor &a);

/** Natural logarithm (caller guarantees positivity). */
Tensor log(const Tensor &a);

/**
 * Inverted dropout: zeroes each element with probability p and scales
 * survivors by 1/(1-p). The 0/1-over-keep-prob mask is written to
 * *mask_out if non-null (needed for the backward pass).
 */
Tensor dropout(const Tensor &a, float p, Rng &rng,
               Tensor *mask_out = nullptr);

/** c[i][j] = a[i][j] + bias[j] for a [N, F] tensor. */
Tensor addBiasRows(const Tensor &a, const Tensor &bias);

/** Concatenate [Ni, F] tensors along rows into [sum Ni, F]. */
Tensor concatRows(const std::vector<Tensor> &parts);

/** Rows [begin, end) of a [N, F] tensor as a new tensor. */
Tensor sliceRows(const Tensor &a, int64_t begin, int64_t end);

/** Concatenate two [N, Fi] tensors along columns into [N, F1+F2]. */
Tensor concatCols(const Tensor &a, const Tensor &b);

/** Materialised 2-D transpose. */
Tensor transpose2d(const Tensor &a);

} // namespace ops
} // namespace gnnmark

#endif // GNNMARK_OPS_ELEMENTWISE_HH
