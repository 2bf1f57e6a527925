/**
 * @file
 * Paper-style report emitters: one printer per table/figure of the
 * evaluation section, consuming WorkloadProfiles.
 */

#ifndef GNNMARK_CORE_REPORTS_HH
#define GNNMARK_CORE_REPORTS_HH

#include <ostream>
#include <utility>
#include <vector>

#include "core/characterization.hh"
#include "gen/report.hh"
#include "multigpu/ddp.hh"
#include "serve/report.hh"

namespace gnnmark {
namespace reports {

/**
 * Table I, the suite inventory, then each workload's statistics set up
 * at scale 1: parameter bytes, steps per epoch and DDP support.
 */
void printTableOne(std::ostream &os);

/** Fig. 2: execution-time breakdown by operation class (percent). */
void printFig2OpBreakdown(const std::vector<WorkloadProfile> &profiles,
                          std::ostream &os);

/** Fig. 3: dynamic instruction mix (int32 / fp32 / other, percent). */
void printFig3InstructionMix(const std::vector<WorkloadProfile> &profiles,
                             std::ostream &os);

/** Fig. 4: GFLOPS / GIOPS per workload, plus IPC. */
void printFig4Throughput(const std::vector<WorkloadProfile> &profiles,
                         std::ostream &os);

/** Fig. 5: warp stall breakdown, plus a per-op-class detail table. */
void printFig5Stalls(const std::vector<WorkloadProfile> &profiles,
                     std::ostream &os);

/** Fig. 6: L1/L2 hit rates and load divergence, overall + per class. */
void printFig6Cache(const std::vector<WorkloadProfile> &profiles,
                    std::ostream &os);

/** Fig. 7: average H2D transfer sparsity per workload. */
void printFig7Sparsity(const std::vector<WorkloadProfile> &profiles,
                       std::ostream &os);

/**
 * Fig. 8: sparsity vs. training iteration for each workload, one
 * column per measured iteration up to `max_points`.
 */
void printFig8SparsityTimeline(
    const std::vector<WorkloadProfile> &profiles, std::ostream &os,
    int max_points);

/**
 * Fig. 9: time per epoch over 1, 2 and 4 GPUs. Strong scaling shows
 * the speedup vs 1 GPU; `weak` curves carry the efficiency t1/tw in
 * ScalingResult::speedup and are labelled as such.
 */
void printFig9Scaling(
    const std::vector<std::pair<std::string, std::vector<ScalingResult>>>
        &curves,
    bool weak, std::ostream &os);

/**
 * What `gnnmark ablations` measured. Per suite workload, in suite
 * order: one baseline run and each study's variant of it, which
 * changes one knob. Then TLSTM at each cold instruction-fetch
 * penalty, its baseline run among them.
 */
struct AblationProfiles
{
    std::vector<WorkloadProfile> baseline;
    std::vector<WorkloadProfile> l1Bypass;   ///< l1BypassIrregular
    std::vector<WorkloadProfile> fp16;       ///< elemBytes = 2
    std::vector<WorkloadProfile> compressed; ///< h2dCompression
    std::vector<WorkloadProfile> inference;  ///< inferenceOnly
    std::vector<WorkloadProfile> a100;       ///< GpuConfig::a100()
    /** (ifetchColdCycles, TLSTM profile), ascending. */
    std::vector<std::pair<int, WorkloadProfile>> coldFetch;
};

/**
 * The takeaway studies against the baseline runs: L1 bypass for
 * irregular kernels (paper Sec. V-C), fp16 training (Sec. VII), H2D
 * zero-value compression (Sec. V-D), training vs inference, V100 vs an
 * A100-like part, and TLSTM's cold instruction-fetch penalty sweep.
 */
void printAblations(const AblationProfiles &runs, std::ostream &os);

/**
 * Fault-tolerance report for one fault-injected DDP run: the itemised
 * recovery overhead of every fault plus the goodput summary.
 */
void printFaultTolerance(const FaultToleranceResult &result,
                         std::ostream &os);

/**
 * SLO-aware serving run: volume split (full/fallback/shed/lost),
 * latency percentiles, goodput, robustness counters, and per-replica
 * breaker/occupancy accounting.
 */
void printServing(const serve::ServingReport &report, std::ostream &os);

/**
 * Graph-generation run: config echo, edge volume and checksum,
 * resident-memory accounting against the chunk budget, throughput,
 * and the optional degree-shape and streamed-training summaries.
 */
void printGen(const gen::GenReport &report, std::ostream &os);

/**
 * One workload's headline figures followed by its kernel table. A
 * profile without losses (a replayed trace of a run with no measured
 * iterations) prints no loss row.
 */
void printWorkloadSummary(const WorkloadProfile &profile,
                          std::ostream &os);

/** nvprof-style top-kernel table for one workload. */
void printKernelTable(const WorkloadProfile &profile, std::ostream &os,
                      int top_n = 12);

/**
 * Host-allocator behaviour per workload (--memstats): peak live bytes,
 * steady-state heap calls per iteration, and the arena hit rate.
 */
void printMemstats(const std::vector<WorkloadProfile> &profiles,
                   std::ostream &os);

/**
 * Operator-dispatch behaviour (--opstats): per-variant selection
 * counts from ops::Dispatch plus the calibration summary. Process-
 * wide (the dispatcher is a singleton), so print it once per
 * invocation, after the workload(s) ran.
 */
void printOpstats(std::ostream &os);

} // namespace reports
} // namespace gnnmark

#endif // GNNMARK_CORE_REPORTS_HH
