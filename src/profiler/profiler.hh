/**
 * @file
 * Workload profiler: the suite's analogue of nvprof + NVBit + the
 * paper's patched-PyTorch transfer instrumentation.
 *
 * A Profiler observes a GpuDevice, accumulating every kernel record and
 * host-to-device transfer. It exposes exactly the aggregates the paper
 * reports: per-operation-class time breakdown (Fig. 2), dynamic
 * instruction mix (Fig. 3), GFLOPS/GIOPS and IPC (Fig. 4), stall
 * distribution (Fig. 5), cache hit rates and load divergence (Fig. 6),
 * and transfer sparsity (Figs. 7-8).
 */

#ifndef GNNMARK_PROFILER_PROFILER_HH
#define GNNMARK_PROFILER_PROFILER_HH

#include <array>
#include <map>
#include <string>
#include <vector>

#include "sim/kernel_record.hh"
#include "sim/op_class.hh"
#include "sim/stall.hh"

namespace gnnmark {

/** Totals for one operation class, one kernel name, or the run. */
struct OpClassStats : SimCounters
{
    double timeSec = 0;
    int64_t launches = 0;
    double cycles = 0;
};

/** One host-to-device transfer, time-stamped by iteration. */
struct SparsitySample
{
    int64_t iteration;
    std::string tag;
    double bytes;
    double zeroFraction;
};

/** Accumulates device activity and computes the paper's metrics. */
class Profiler : public KernelObserver
{
  public:
    Profiler() = default;

    // KernelObserver interface.
    void onKernel(const KernelRecord &record) override;
    void onTransfer(const TransferRecord &record) override;
    void onPhase(PhaseMark mark) override;

    /** Advance the iteration counter used to time-stamp transfers. */
    void beginIteration();

    // --- Totals ---
    double totalKernelTimeSec() const { return total_.timeSec; }
    int64_t totalLaunches() const { return total_.launches; }

    // --- Fig. 2: execution-time breakdown by op class ---
    /** Fraction of kernel time per class (sums to 1 if any time). */
    std::array<double, kNumOpClasses> opTimeBreakdown() const;
    const OpClassStats &classStats(OpClass c) const;

    // --- Fig. 3: dynamic instruction mix ---
    /** Fractions of {int32, fp32, other} over all executed instrs. */
    struct InstructionMix
    {
        double int32Frac = 0;
        double fp32Frac = 0;
        double otherFrac = 0;
    };
    InstructionMix instructionMix() const;

    // --- Fig. 4: arithmetic throughput ---
    double gflops() const; ///< fp32 lane-ops / kernel time / 1e9
    double giops() const;  ///< int32 lane-ops / kernel time / 1e9
    double avgIpc() const; ///< cycle-weighted mean of per-kernel IPC

    // --- Fig. 5: stall distribution ---
    /** Normalised stall-cycle shares per reason (sums to 1). */
    StallVector stallBreakdown() const;

    // --- Fig. 6: caches and divergence ---
    double l1HitRate() const;
    double l2HitRate() const;
    double divergentLoadFraction() const;

    // --- Figs. 7-8: transfer sparsity ---
    /** Byte-weighted average fraction of zero values sent H2D. */
    double avgTransferSparsity() const;
    double totalTransferBytes() const { return transferBytes_; }
    double totalTransferTimeSec() const { return transferTime_; }
    const std::vector<SparsitySample> &sparsityTimeline() const;

    /** Per-kernel-name totals (the nvprof "GPU activities" view). */
    const std::map<std::string, OpClassStats> &kernelStats() const;

  private:
    std::array<OpClassStats, kNumOpClasses> classes_{};
    std::map<std::string, OpClassStats> kernels_;
    OpClassStats total_;
    // Summed per kernel: recomputing them from total_ rounds
    // differently.
    double otherInstrs_ = 0;      ///< mem + misc instructions
    double cycleWeightedIpc_ = 0; ///< sum of ipc * cycles

    double transferBytes_ = 0;
    double transferZeroBytes_ = 0;
    double transferTime_ = 0;
    int64_t iteration_ = 0;
    std::vector<SparsitySample> sparsity_;
};

} // namespace gnnmark

#endif // GNNMARK_PROFILER_PROFILER_HH
