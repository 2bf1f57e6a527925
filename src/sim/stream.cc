#include "sim/stream.hh"

#include <algorithm>
#include <cmath>

#include "base/logging.hh"

namespace gnnmark {

SimStream::SimStream(std::string name) : name_(std::move(name)) {}

const StreamOp &
SimStream::enqueue(const std::string &op_name, double ready_sec,
                   double duration_sec)
{
    GNN_ASSERT(duration_sec >= 0, "negative op duration");
    StreamOp op;
    op.name = op_name;
    op.readySec = ready_sec;
    op.startSec = std::max(ready_sec, cursor_);
    op.endSec = op.startSec + duration_sec;
    cursor_ = op.endSec;
    ops_.push_back(std::move(op));
    return ops_.back();
}

double
IterationTimeline::wallSec() const
{
    const double dispatch =
        static_cast<double>(kernelCount) * launchOverheadSec;
    return std::max(kernelSec, dispatch) + transferSec;
}

double
IterationTimeline::wallAtKernelTime(double t) const
{
    if (kernelSec <= 0)
        return transferSec;
    const double clamped = std::min(std::max(t, 0.0), kernelSec);
    // When dispatch paces the stream, launches are spread over the
    // dispatch window, stretching cumulative kernel time uniformly.
    const double stretch = (wallSec() - transferSec) / kernelSec;
    return transferSec + clamped * stretch;
}

double
IterationTimeline::bucketReadySec(int index, int count) const
{
    GNN_ASSERT(count >= 1 && index >= 0 && index < count,
               "bucket index out of range");
    if (!hasBackward())
        return wallAtKernelTime(kernelSec);
    const size_t n = backwardKernelEnds.size();
    // Bucket i of `count` is full once fraction (i+1)/count of the
    // backward kernels have completed (grads are produced in kernel
    // order).
    size_t k = (n * static_cast<size_t>(index + 1) +
                static_cast<size_t>(count) - 1) /
               static_cast<size_t>(count);
    k = std::min(std::max<size_t>(k, 1), n);
    return wallAtKernelTime(backwardKernelEnds[k - 1]);
}

void
TimelineCollector::onKernel(const KernelRecord &record)
{
    if (iterations_.empty())
        return; // warm-up launch before the first iteration mark
    IterationTimeline &it = iterations_.back();
    it.kernelSec += record.timeSec;
    ++it.kernelCount;
    if (inBackward_)
        it.backwardKernelEnds.push_back(it.kernelSec);
}

void
TimelineCollector::onTransfer(const TransferRecord &record)
{
    if (iterations_.empty())
        return;
    iterations_.back().transferSec += record.timeSec;
}

void
TimelineCollector::onPhase(PhaseMark mark)
{
    switch (mark) {
      case PhaseMark::IterationBegin: {
        IterationTimeline it;
        it.launchOverheadSec = launchOverheadSec_;
        iterations_.push_back(it);
        inBackward_ = false;
        break;
      }
      case PhaseMark::BackwardBegin:
        if (!iterations_.empty()) {
            IterationTimeline &it = iterations_.back();
            if (it.backwardBeginKernelSec < 0)
                it.backwardBeginKernelSec = it.kernelSec;
            inBackward_ = true;
        }
        break;
      case PhaseMark::BackwardEnd:
        if (!iterations_.empty() && inBackward_) {
            iterations_.back().backwardEndKernelSec =
                iterations_.back().kernelSec;
        }
        inBackward_ = false;
        break;
    }
}

} // namespace gnnmark
