/**
 * @file
 * Measured results of a kernel launch (and of host-to-device copies),
 * as delivered to profiler observers. This is the model's analogue of
 * one nvprof row plus the NVBit divergence counters.
 */

#ifndef GNNMARK_SIM_KERNEL_RECORD_HH
#define GNNMARK_SIM_KERNEL_RECORD_HH

#include <cstdint>
#include <string>

#include "sim/op_class.hh"
#include "sim/stall.hh"

namespace gnnmark {

/**
 * The simulated counters every figure is a ratio of. This struct is
 * the one place the counter set is decided: its arithmetic walks one
 * field list, so a sum, scale or average of counters anywhere covers
 * every counter. Each operator applies its operation to each field on
 * its own, so a result is bitwise the one the fields written out by
 * hand would give.
 */
struct SimCounters
{
    // Dynamic instruction counts (warp instructions).
    double fp32Instrs = 0;
    double int32Instrs = 0;
    double memInstrs = 0;
    double miscInstrs = 0;

    // Lane-level arithmetic work (for GFLOPS / GIOPS).
    double flops = 0;
    double intOps = 0;

    // Memory behaviour.
    double loads = 0;          ///< global load instructions
    double divergentLoads = 0; ///< loads touching > 1 cache line
    double l1Accesses = 0;
    double l1Hits = 0;
    double l2Accesses = 0;
    double l2Hits = 0;
    double dramBytes = 0;

    // Warp issue-stall cycles by reason (relative magnitudes matter).
    StallVector stallCycles{};

    double
    totalInstrs() const
    {
        return fp32Instrs + int32Instrs + memInstrs + miscInstrs;
    }
    double l1HitRate() const { return ratio(l1Hits, l1Accesses); }
    double l2HitRate() const { return ratio(l2Hits, l2Accesses); }
    double
    divergentLoadFraction() const
    {
        return ratio(divergentLoads, loads);
    }

    SimCounters &
    operator+=(const SimCounters &o)
    {
        zip(*this, o, [](double &x, double y) { x += y; });
        return *this;
    }

    SimCounters &
    operator*=(double s)
    {
        zip(*this, *this, [s](double &x, double) { x *= s; });
        return *this;
    }

    SimCounters &
    operator/=(double d)
    {
        zip(*this, *this, [d](double &x, double) { x /= d; });
        return *this;
    }

    bool
    operator==(const SimCounters &o) const
    {
        bool equal = true;
        zip(*this, o, [&equal](double x, double y) {
            equal = equal && x == y;
        });
        return equal;
    }

  private:
    static double
    ratio(double num, double den)
    {
        return den > 0 ? num / den : 0.0;
    }

    /** The field list: calls f(a.field, b.field) for every slot. */
    template <typename A, typename F>
    static void
    zip(A &a, const SimCounters &b, F f)
    {
        f(a.fp32Instrs, b.fp32Instrs);
        f(a.int32Instrs, b.int32Instrs);
        f(a.memInstrs, b.memInstrs);
        f(a.miscInstrs, b.miscInstrs);
        f(a.flops, b.flops);
        f(a.intOps, b.intOps);
        f(a.loads, b.loads);
        f(a.divergentLoads, b.divergentLoads);
        f(a.l1Accesses, b.l1Accesses);
        f(a.l1Hits, b.l1Hits);
        f(a.l2Accesses, b.l2Accesses);
        f(a.l2Hits, b.l2Hits);
        f(a.dramBytes, b.dramBytes);
        for (size_t r = 0; r < kNumStallReasons; ++r)
            f(a.stallCycles[r], b.stallCycles[r]);
    }
};

/** Per-launch metrics; the counters are scaled to the full grid. */
struct KernelRecord : SimCounters
{
    std::string name;
    OpClass opClass = OpClass::Other;
    int64_t invocation = 0; ///< per-name launch counter (0-based)
    bool detailed = false;  ///< freshly simulated vs. reused sample

    double timeSec = 0;     ///< kernel duration (excludes launch gap)
    double cycles = 0;      ///< SM cycles over the kernel duration
    int activeSms = 0;      ///< SMs with at least one resident block
    double ipc = 0;         ///< warp instrs / cycle / active SM
};

/** One host-to-device copy, with the sparsity the paper tracks. */
struct TransferRecord
{
    std::string tag;      ///< caller-provided label (e.g. "features")
    double bytes = 0;
    double zeroFraction = 0; ///< fraction of zero-valued elements
    double timeSec = 0;
};

/**
 * Timeline phase marks the driving layer inserts between launches.
 * They carry no cost; observers use them to segment the kernel stream
 * (per-iteration splits, backward windows for the DDP overlap model).
 */
enum class PhaseMark : uint8_t
{
    IterationBegin, ///< a measured training iteration starts
    BackwardBegin,  ///< autograd reverse sweep starts emitting kernels
    BackwardEnd,    ///< last gradient-producing kernel has been issued
};

/**
 * Observer interface for profilers; a device forwards every kernel
 * launch and host-to-device transfer to its registered observers.
 */
class KernelObserver
{
  public:
    virtual ~KernelObserver() = default;
    virtual void onKernel(const KernelRecord &record) = 0;
    virtual void onTransfer(const TransferRecord &record) = 0;
    /** Phase mark forwarded by the device (default: ignored). */
    virtual void onPhase(PhaseMark mark) { (void)mark; }
};

} // namespace gnnmark

#endif // GNNMARK_SIM_KERNEL_RECORD_HH
