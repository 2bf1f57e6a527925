#include "nn/optim.hh"

#include <cmath>

#include "base/logging.hh"
#include "obs/span.hh"
#include "ops/kernel_common.hh"

namespace gnnmark {
namespace nn {

namespace {

/** Emit the fused per-parameter update kernel. */
void
emitUpdate(const char *name, const Tensor &param, int fp_per_elem,
           int sfu_per_elem)
{
    ElementwiseSpec spec;
    spec.name = name;
    spec.elems = param.numel();
    spec.inAddrs = {param.deviceAddr()};
    spec.outAddrs = {param.deviceAddr()};
    spec.fp32PerElem = fp_per_elem;
    spec.sfuPerElem = sfu_per_elem;
    spec.int32PerElem = 12;
    spec.elemBytes = deviceElemBytes();
    emitElementwise(spec);
}

} // namespace

Optimizer::Optimizer(std::vector<Variable> params)
    : params_(std::move(params))
{
    for (const Variable &p : params_) {
        GNN_ASSERT(p.defined() && p.requiresGrad(),
                   "optimiser given a non-trainable parameter");
    }
}

void
Optimizer::zeroGrad()
{
    for (Variable &p : params_)
        p.zeroGrad();
}

double
Optimizer::parameterBytes() const
{
    double bytes = 0;
    for (const Variable &p : params_)
        bytes += static_cast<double>(p.value().numel()) * 4.0;
    return bytes;
}

Adam::Adam(std::vector<Variable> params, float lr, float beta1,
           float beta2, float eps)
    : Optimizer(std::move(params)), lr_(lr), beta1_(beta1), beta2_(beta2),
      eps_(eps)
{
    m_.reserve(params_.size());
    v_.reserve(params_.size());
    for (const Variable &p : params_) {
        m_.push_back(Tensor::zeros(p.value().shape()));
        v_.push_back(Tensor::zeros(p.value().shape()));
    }
}

void
Adam::step()
{
    GNN_SPAN("optim.adam.step");
    ++t_;
    const float bc1 =
        1.0f - std::pow(beta1_, static_cast<float>(t_));
    const float bc2 =
        1.0f - std::pow(beta2_, static_cast<float>(t_));
    for (size_t i = 0; i < params_.size(); ++i) {
        Variable &p = params_[i];
        if (!p.hasGrad())
            continue;
        float *pv = p.value().data();
        const float *pg = p.grad().data();
        float *pm = m_[i].data();
        float *pvv = v_[i].data();
        for (int64_t j = 0; j < p.value().numel(); ++j) {
            const float g = pg[j];
            pm[j] = beta1_ * pm[j] + (1.0f - beta1_) * g;
            pvv[j] = beta2_ * pvv[j] + (1.0f - beta2_) * g * g;
            const float mhat = pm[j] / bc1;
            const float vhat = pvv[j] / bc2;
            pv[j] -= lr_ * mhat / (std::sqrt(vhat) + eps_);
        }
        emitUpdate("optim_adam", p.value(), 8, 1);
    }
}

void
Adam::visitState(const std::function<void(Tensor &)> &slot,
                 const std::function<void(int64_t &)> &scalar)
{
    scalar(t_);
    for (Tensor &t : m_)
        slot(t);
    for (Tensor &t : v_)
        slot(t);
}

} // namespace nn
} // namespace gnnmark
