/**
 * @file
 * Optimisers. Parameter updates mutate the parameter tensors in place
 * and emit element-wise kernels, so the optimiser step is visible to
 * the profiler just as it is under nvprof.
 */

#ifndef GNNMARK_NN_OPTIM_HH
#define GNNMARK_NN_OPTIM_HH

#include <functional>
#include <vector>

#include "ops/variable.hh"

namespace gnnmark {
namespace nn {

/**
 * Adam (Kingma & Ba), the optimiser every GNNMark workload uses, over
 * a fixed parameter list.
 */
class Adam
{
  public:
    Adam(std::vector<Variable> params, float lr, float beta1 = 0.9f,
         float beta2 = 0.999f, float eps = 1e-8f);

    /** Apply one update from the accumulated gradients. */
    void step();

    /** Clear the gradients of all managed parameters. */
    void zeroGrad();

    const std::vector<Variable> &params() const { return params_; }

    /** Total parameter bytes (the DDP all-reduce payload). */
    double parameterBytes() const;

    /**
     * Enumerate the optimiser's internal state for checkpointing, in a
     * fixed order: the step counter through `scalar`, then every
     * moment buffer through `slot`.
     */
    void visitState(const std::function<void(Tensor &)> &slot,
                    const std::function<void(int64_t &)> &scalar);

  private:
    // Declared first, so the parameters are released after the moment
    // buffers: a workload's re-setup maps into the freed addresses in
    // that order.
    std::vector<Variable> params_;
    float lr_, beta1_, beta2_, eps_;
    int64_t t_ = 0;
    std::vector<Tensor> m_, v_;
};

} // namespace nn
} // namespace gnnmark

#endif // GNNMARK_NN_OPTIM_HH
