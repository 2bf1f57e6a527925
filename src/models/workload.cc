#include "models/workload.hh"

#include "base/allocator.hh"
#include "base/logging.hh"
#include "nn/optim.hh"
#include "ops/exec_context.hh"

namespace gnnmark {

double
checkedScale(double scale)
{
    GNN_ASSERT(scale > 0 && scale <= kMaxScale,
               "dataset scale %g is outside (0, %g]", scale, kMaxScale);
    return scale;
}

void
StateVisitor::optimizer(nn::Adam &opt)
{
    // Parameter tensors first (fixed registration order), then the
    // optimiser's own slots and counters.
    for (const Variable &p : opt.params()) {
        // Variables share storage with the model's parameters, so
        // writing through them updates the model in place.
        tensor(const_cast<Variable &>(p).value());
    }
    opt.visitState([this](Tensor &t) { tensor(t); },
                   [this](int64_t &v) { scalar(v); });
}

void
uploadInput(const Tensor &t, const std::string &tag)
{
    if (GpuDevice *dev = ExecContext::device()) {
        dev->copyHostToDevice(t.data(), t.numel(), t.deviceAddr(), tag);
    }
}

void
uploadInput(const std::vector<int32_t> &idx, const std::string &tag)
{
    if (GpuDevice *dev = ExecContext::device()) {
        // Index arrays stream through a transient staging mapping;
        // the span is released on return, so ops that later read the
        // same vector map their own (deterministic) address.
        DeviceSpan staging(idx.size() * sizeof(int32_t));
        dev->copyHostToDevice(idx.data(), idx.size(), staging.addr(),
                              tag);
    }
}

} // namespace gnnmark
