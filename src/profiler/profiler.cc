#include "profiler/profiler.hh"

#include "base/logging.hh"

namespace gnnmark {

namespace {

void
accumulate(OpClassStats &s, const KernelRecord &r)
{
    s += r;
    s.timeSec += r.timeSec;
    s.launches += 1;
    s.cycles += r.cycles;
}

double
ratio(double num, double den)
{
    return den > 0 ? num / den : 0.0;
}

} // namespace

void
Profiler::onKernel(const KernelRecord &r)
{
    accumulate(classes_[static_cast<size_t>(r.opClass)], r);
    accumulate(kernels_[r.name], r);
    accumulate(total_, r);
    otherInstrs_ += r.memInstrs + r.miscInstrs;
    cycleWeightedIpc_ += r.ipc * r.cycles;
}

void
Profiler::onTransfer(const TransferRecord &r)
{
    transferBytes_ += r.bytes;
    transferZeroBytes_ += r.bytes * r.zeroFraction;
    transferTime_ += r.timeSec;
    sparsity_.push_back(
        SparsitySample{iteration_, r.tag, r.bytes, r.zeroFraction});
}

void
Profiler::onPhase(PhaseMark mark)
{
    if (mark == PhaseMark::IterationBegin)
        beginIteration();
}

void
Profiler::beginIteration()
{
    ++iteration_;
}

void
Profiler::reset()
{
    *this = Profiler();
}

std::array<double, kNumOpClasses>
Profiler::opTimeBreakdown() const
{
    std::array<double, kNumOpClasses> out{};
    for (size_t i = 0; i < kNumOpClasses; ++i)
        out[i] = ratio(classes_[i].timeSec, total_.timeSec);
    return out;
}

const OpClassStats &
Profiler::classStats(OpClass c) const
{
    return classes_[static_cast<size_t>(c)];
}

Profiler::InstructionMix
Profiler::instructionMix() const
{
    double total = total_.fp32Instrs + total_.int32Instrs + otherInstrs_;
    InstructionMix mix;
    mix.fp32Frac = ratio(total_.fp32Instrs, total);
    mix.int32Frac = ratio(total_.int32Instrs, total);
    mix.otherFrac = ratio(otherInstrs_, total);
    return mix;
}

double
Profiler::gflops() const
{
    return ratio(total_.flops, total_.timeSec) / 1e9;
}

double
Profiler::giops() const
{
    return ratio(total_.intOps, total_.timeSec) / 1e9;
}

double
Profiler::avgIpc() const
{
    return ratio(cycleWeightedIpc_, total_.cycles);
}

StallVector
Profiler::stallBreakdown() const
{
    double total = 0;
    for (double s : total_.stallCycles)
        total += s;
    StallVector out{};
    for (size_t i = 0; i < kNumStallReasons; ++i)
        out[i] = ratio(total_.stallCycles[i], total);
    return out;
}

double
Profiler::l1HitRate() const
{
    return total_.l1HitRate();
}

double
Profiler::l2HitRate() const
{
    return total_.l2HitRate();
}

double
Profiler::divergentLoadFraction() const
{
    return total_.divergentLoadFraction();
}

double
Profiler::avgTransferSparsity() const
{
    return ratio(transferZeroBytes_, transferBytes_);
}

const std::vector<SparsitySample> &
Profiler::sparsityTimeline() const
{
    return sparsity_;
}

const std::map<std::string, OpClassStats> &
Profiler::kernelStats() const
{
    return kernels_;
}

} // namespace gnnmark
