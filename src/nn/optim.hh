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

/** Optimiser over a fixed parameter list. */
class Optimizer
{
  public:
    explicit Optimizer(std::vector<Variable> params);
    virtual ~Optimizer() = default;

    /** Apply one update from the accumulated gradients. */
    virtual void step() = 0;

    /** Clear the gradients of all managed parameters. */
    void zeroGrad();

    const std::vector<Variable> &params() const { return params_; }

    /** Total parameter bytes (the DDP all-reduce payload). */
    double parameterBytes() const;

    /**
     * Enumerate the optimiser's internal state for checkpointing, in a
     * fixed order: every slot tensor (moment buffers) through
     * `slot`, every integer scalar (step counters) through `scalar`.
     * The base optimiser has none; subclasses override.
     */
    virtual void
    visitState(const std::function<void(Tensor &)> &slot,
               const std::function<void(int64_t &)> &scalar)
    {
        (void)slot;
        (void)scalar;
    }

  protected:
    std::vector<Variable> params_;
};

/** Adam (Kingma & Ba), the optimiser the GNNMark workloads use. */
class Adam : public Optimizer
{
  public:
    Adam(std::vector<Variable> params, float lr, float beta1 = 0.9f,
         float beta2 = 0.999f, float eps = 1e-8f);
    void step() override;
    void visitState(const std::function<void(Tensor &)> &slot,
                    const std::function<void(int64_t &)> &scalar) override;

  private:
    float lr_, beta1_, beta2_, eps_;
    int64_t t_ = 0;
    std::vector<Tensor> m_, v_;
};

} // namespace nn
} // namespace gnnmark

#endif // GNNMARK_NN_OPTIM_HH
