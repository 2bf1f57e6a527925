/**
 * @file
 * Reduction operators: full, row-wise, column-wise and segmented
 * reductions, plus the row-broadcast companions used by softmax and
 * normalisation layers.
 */

#ifndef GNNMARK_OPS_REDUCE_HH
#define GNNMARK_OPS_REDUCE_HH

#include <cstdint>
#include <vector>

#include "tensor/tensor.hh"

namespace gnnmark {
namespace ops {

/** Sum over all elements. */
float reduceSumAll(const Tensor &a);

/** Mean over all elements. */
float reduceMeanAll(const Tensor &a);

/** Per-row sum of a [N, F] tensor; returns [N]. */
Tensor reduceSumRows(const Tensor &a);

/** Per-row max of a [N, F] tensor; returns [N]. */
Tensor reduceMaxRows(const Tensor &a);

/** Per-row argmax of a [N, F] tensor. */
std::vector<int32_t> argmaxRows(const Tensor &a);

/** Per-column sum of a [N, F] tensor; returns [F] (bias gradients). */
Tensor reduceSumCols(const Tensor &a);

/**
 * Segment sum: rows of src [E, F] are grouped by the CSR-style offsets
 * (offsets.size() == N + 1); returns [N, F]. Segment e covers src rows
 * [offsets[n], offsets[n+1]).
 */
Tensor segmentSumRows(const Tensor &src,
                      const std::vector<int32_t> &offsets);

/** @{ Row broadcasts: combine each row of a [N, F] with v [N]. */
Tensor subRowsBy(const Tensor &a, const Tensor &v);
Tensor divRowsBy(const Tensor &a, const Tensor &v);
Tensor mulRowsBy(const Tensor &a, const Tensor &v);
/** @} */

} // namespace ops
} // namespace gnnmark

#endif // GNNMARK_OPS_REDUCE_HH
