#include "core/reports.hh"

#include <algorithm>
#include <cmath>

#include "base/string_utils.hh"
#include "base/table.hh"
#include "base/units.hh"
#include "core/suite.hh"
#include "ops/dispatch.hh"

namespace gnnmark {
namespace reports {

void
printTableOne(std::ostream &os)
{
    TablePrinter table(
        "Table I: GNNMark workloads (synthetic-dataset reproduction)");
    table.setHeader({"Workload", "Model", "Framework", "Domain",
                     "Dataset", "Graph type"});
    TablePrinter stats("Workload statistics at scale 1");
    stats.setHeader({"Workload", "Parameters", "Steps/epoch",
                     "DDP-capable", "Sampler DDP-safe"});
    for (const TableOneRow &row : BenchmarkSuite::tableOne()) {
        table.addRow({row.workload, row.model, row.framework, row.domain,
                      row.dataset, row.graphType});
    }
    for (const auto &wl : BenchmarkSuite::createAll()) {
        wl->setup(WorkloadConfig{});
        stats.addRow({wl->name(), formatBytes(wl->parameterBytes()),
                      strfmt("%lld", static_cast<long long>(
                                         wl->iterationsPerEpoch())),
                      wl->supportsMultiGpu() ? "yes" : "no",
                      wl->samplerDdpCompatible() ? "yes" : "no"});
    }
    table.print(os);
    os << "\n";
    stats.print(os);
}

void
printFig2OpBreakdown(const std::vector<WorkloadProfile> &profiles,
                     std::ostream &os)
{
    TablePrinter table(
        "Fig. 2: execution-time breakdown by operation (percent of "
        "kernel time)");
    std::vector<std::string> header = {"Workload"};
    for (OpClass c : allOpClasses())
        header.push_back(opClassName(c));
    table.setHeader(header);

    std::array<double, kNumOpClasses> mean{};
    for (const WorkloadProfile &p : profiles) {
        auto breakdown = p.profiler.opTimeBreakdown();
        std::vector<std::string> row = {p.name};
        for (size_t i = 0; i < kNumOpClasses; ++i) {
            row.push_back(fixed(breakdown[i] * 100.0, 1));
            mean[i] += breakdown[i] / profiles.size();
        }
        table.addRow(row);
    }
    std::vector<std::string> avg = {"MEAN"};
    for (size_t i = 0; i < kNumOpClasses; ++i)
        avg.push_back(fixed(mean[i] * 100.0, 1));
    table.addRow(avg);
    table.print(os);

    const double gemm_spmm =
        (mean[static_cast<size_t>(OpClass::Gemm)] +
         mean[static_cast<size_t>(OpClass::Gemv)] +
         mean[static_cast<size_t>(OpClass::SpMM)]) * 100.0;
    const double agg_ops =
        (mean[static_cast<size_t>(OpClass::Sort)] +
         mean[static_cast<size_t>(OpClass::IndexSelect)] +
         mean[static_cast<size_t>(OpClass::Reduction)] +
         mean[static_cast<size_t>(OpClass::Scatter)] +
         mean[static_cast<size_t>(OpClass::Gather)]) * 100.0;
    os << strfmt("Suite mean GEMM+SpMM share: %.1f%% "
                 "(paper: ~25%%)\n", gemm_spmm);
    os << strfmt("Suite mean sort+index+reduce+scatter+gather share: "
                 "%.1f%% (paper: ~20.8%%)\n\n", agg_ops);
}

void
printFig3InstructionMix(const std::vector<WorkloadProfile> &profiles,
                        std::ostream &os)
{
    TablePrinter table(
        "Fig. 3: dynamic instruction mix (percent of instructions)");
    table.setHeader({"Workload", "int32", "fp32", "other"});
    double mean_int = 0, mean_fp = 0;
    for (const WorkloadProfile &p : profiles) {
        auto mix = p.profiler.instructionMix();
        table.addRow({p.name, fixed(mix.int32Frac * 100.0, 1),
                      fixed(mix.fp32Frac * 100.0, 1),
                      fixed(mix.otherFrac * 100.0, 1)});
        mean_int += mix.int32Frac / profiles.size();
        mean_fp += mix.fp32Frac / profiles.size();
    }
    table.addRow({"MEAN", fixed(mean_int * 100.0, 1),
                  fixed(mean_fp * 100.0, 1),
                  fixed((1.0 - mean_int - mean_fp) * 100.0, 1)});
    table.print(os);
    os << strfmt("Suite mean int32 share: %.1f%% (paper: 64%%); fp32: "
                 "%.1f%% (paper: 28.7%%)\n\n",
                 mean_int * 100.0, mean_fp * 100.0);
}

void
printFig4Throughput(const std::vector<WorkloadProfile> &profiles,
                    std::ostream &os)
{
    TablePrinter table("Fig. 4: arithmetic throughput per workload");
    table.setHeader({"Workload", "GFLOPS", "GIOPS", "IPC"});
    double mean_gf = 0, mean_gi = 0, mean_ipc = 0;
    for (const WorkloadProfile &p : profiles) {
        table.addRow({p.name, fixed(p.profiler.gflops(), 1),
                      fixed(p.profiler.giops(), 1),
                      fixed(p.profiler.avgIpc(), 2)});
        mean_gf += p.profiler.gflops() / profiles.size();
        mean_gi += p.profiler.giops() / profiles.size();
        mean_ipc += p.profiler.avgIpc() / profiles.size();
    }
    table.addRow({"MEAN", fixed(mean_gf, 1), fixed(mean_gi, 1),
                  fixed(mean_ipc, 2)});
    table.print(os);
    os << strfmt("Suite means (paper: 214 GFLOPS, 705 GIOPS, IPC "
                 "0.55): %.0f GFLOPS, %.0f GIOPS, IPC %.2f\n\n",
                 mean_gf, mean_gi, mean_ipc);
}

void
printFig5Stalls(const std::vector<WorkloadProfile> &profiles,
                std::ostream &os)
{
    TablePrinter table(
        "Fig. 5: warp issue-stall breakdown (percent of stall cycles)");
    std::vector<std::string> header = {"Workload"};
    for (size_t r = 0; r < kNumStallReasons; ++r)
        header.push_back(stallReasonName(static_cast<StallReason>(r)));
    table.setHeader(header);

    StallVector mean{};
    for (const WorkloadProfile &p : profiles) {
        StallVector b = p.profiler.stallBreakdown();
        std::vector<std::string> row = {p.name};
        for (size_t r = 0; r < kNumStallReasons; ++r) {
            row.push_back(fixed(b[r] * 100.0, 1));
            mean[r] += b[r] / profiles.size();
        }
        table.addRow(row);
    }
    std::vector<std::string> avg = {"MEAN"};
    for (size_t r = 0; r < kNumStallReasons; ++r)
        avg.push_back(fixed(mean[r] * 100.0, 1));
    table.addRow(avg);
    table.print(os);
    os << strfmt(
        "Suite means (paper: MemDep 34.3%%, ExecDep 29.5%%, IFetch "
        "21.6%%): MemDep %.1f%%, ExecDep %.1f%%, IFetch %.1f%%\n\n",
        mean[0] * 100.0, mean[1] * 100.0, mean[2] * 100.0);

    // Per-op-class stall detail (paper Fig. 5's companion analysis).
    TablePrinter detail(
        "Per-operation stall shares (suite-wide, percent)");
    std::vector<std::string> dh = {"Operation"};
    for (size_t r = 0; r < kNumStallReasons; ++r)
        dh.push_back(stallReasonName(static_cast<StallReason>(r)));
    detail.setHeader(dh);
    for (OpClass c : allOpClasses()) {
        // The total is summed slot by slot as it goes: summing `sum`
        // afterwards would round differently.
        StallVector sum{};
        double total = 0;
        for (const WorkloadProfile &p : profiles) {
            const OpClassStats &s = p.profiler.classStats(c);
            for (size_t r = 0; r < kNumStallReasons; ++r) {
                sum[r] += s.stallCycles[r];
                total += s.stallCycles[r];
            }
        }
        if (total <= 0)
            continue;
        std::vector<std::string> row = {opClassName(c)};
        for (size_t r = 0; r < kNumStallReasons; ++r)
            row.push_back(fixed(sum[r] / total * 100.0, 1));
        detail.addRow(row);
    }
    detail.print(os);
    os << "\n";
}

void
printFig6Cache(const std::vector<WorkloadProfile> &profiles,
               std::ostream &os)
{
    TablePrinter table(
        "Fig. 6: cache hit rates and load divergence (percent)");
    table.setHeader({"Workload", "L1 hit", "L2 hit", "Divergent loads"});
    double mean_l1 = 0, mean_l2 = 0, mean_div = 0;
    for (const WorkloadProfile &p : profiles) {
        table.addRow({p.name, fixed(p.profiler.l1HitRate() * 100.0, 1),
                      fixed(p.profiler.l2HitRate() * 100.0, 1),
                      fixed(p.profiler.divergentLoadFraction() * 100.0,
                            1)});
        mean_l1 += p.profiler.l1HitRate() / profiles.size();
        mean_l2 += p.profiler.l2HitRate() / profiles.size();
        mean_div +=
            p.profiler.divergentLoadFraction() / profiles.size();
    }
    table.addRow({"MEAN", fixed(mean_l1 * 100.0, 1),
                  fixed(mean_l2 * 100.0, 1), fixed(mean_div * 100.0, 1)});
    table.print(os);
    os << strfmt("Suite means (paper: L1 ~15%%, L2 ~70%%, divergent "
                 "~32.5%%): L1 %.1f%%, L2 %.1f%%, divergent %.1f%%\n\n",
                 mean_l1 * 100.0, mean_l2 * 100.0, mean_div * 100.0);

    TablePrinter detail("Per-operation L1 hit rate (suite-wide)");
    detail.setHeader({"Operation", "L1 hit", "L2 hit", "Divergent"});
    for (OpClass c : allOpClasses()) {
        SimCounters sum;
        for (const WorkloadProfile &p : profiles)
            sum += p.profiler.classStats(c);
        if (sum.l2Accesses <= 0)
            continue;
        detail.addRow({opClassName(c), fixed(sum.l1HitRate() * 100.0, 1),
                       fixed(sum.l2HitRate() * 100.0, 1),
                       fixed(sum.divergentLoadFraction() * 100.0, 1)});
    }
    detail.print(os);
    os << "\n";
}

void
printFig7Sparsity(const std::vector<WorkloadProfile> &profiles,
                  std::ostream &os)
{
    TablePrinter table(
        "Fig. 7: average sparsity of CPU-to-GPU transfers");
    table.setHeader({"Workload", "Sparsity", "Transferred"});
    double mean = 0;
    for (const WorkloadProfile &p : profiles) {
        table.addRow(
            {p.name,
             fixed(p.profiler.avgTransferSparsity() * 100.0, 1),
             formatBytes(p.profiler.totalTransferBytes())});
        mean += p.profiler.avgTransferSparsity() / profiles.size();
    }
    table.addRow({"MEAN", fixed(mean * 100.0, 1), ""});
    table.print(os);
    os << strfmt("Suite mean transfer sparsity: %.1f%% (paper: "
                 "43.2%%)\n\n", mean * 100.0);
}

void
printFig8SparsityTimeline(const std::vector<WorkloadProfile> &profiles,
                          std::ostream &os, int max_points)
{
    TablePrinter table(
        "Fig. 8: transfer sparsity vs. training iteration (percent)");
    std::vector<std::string> header = {"Workload"};
    for (int i = 1; i <= max_points; ++i)
        header.push_back(strfmt("it%d", i));
    table.setHeader(header);

    for (const WorkloadProfile &p : profiles) {
        // Byte-weighted sparsity per iteration.
        std::vector<double> bytes(max_points + 1, 0);
        std::vector<double> zeros(max_points + 1, 0);
        for (const SparsitySample &s : p.profiler.sparsityTimeline()) {
            if (s.iteration >= 1 && s.iteration <= max_points) {
                bytes[s.iteration] += s.bytes;
                zeros[s.iteration] += s.bytes * s.zeroFraction;
            }
        }
        std::vector<std::string> row = {p.name};
        for (int i = 1; i <= max_points; ++i) {
            row.push_back(bytes[i] > 0
                              ? fixed(zeros[i] / bytes[i] * 100.0, 1)
                              : std::string("-"));
        }
        table.addRow(row);
    }
    table.print(os);
    os << "\n";
}

void
printFig9Scaling(
    const std::vector<std::pair<std::string, std::vector<ScalingResult>>>
        &curves,
    bool weak, std::ostream &os)
{
    TablePrinter table(
        weak ? "Weak scaling with PyTorch DDP (fixed per-GPU batch, "
               "time per epoch)"
             : "Fig. 9: strong scaling with PyTorch DDP (time per epoch)");
    table.setHeader({"Workload", "GPUs", "Epoch (ms)", "Compute (ms)",
                     "Comm (ms)", "Exposed (ms)", "Overlap %",
                     weak ? "Efficiency t1/tw" : "Speedup vs 1 GPU"});
    for (const auto &[name, points] : curves) {
        for (const ScalingResult &r : points) {
            table.addRow({name, strfmt("%d", r.worldSize),
                          fixed(r.epochTimeSec * 1e3, 2),
                          fixed(r.computeTimeSec * 1e3, 2),
                          fixed(r.commTimeSec * 1e3, 2),
                          fixed(r.commExposedSec * 1e3, 2),
                          fixed(r.overlapFrac * 100.0, 1),
                          fixed(r.speedup, 2)});
        }
    }
    table.print(os);
    os << "\n";
}

namespace {

/** Kernel time of `variant` over `base`. */
double
kernelTimeRatio(const WorkloadProfile &variant, const WorkloadProfile &base)
{
    return variant.profiler.totalKernelTimeSec() /
           base.profiler.totalKernelTimeSec();
}

/** GEMM + GEMV + SpMM + Conv share of kernel time. */
double
gemmShare(const WorkloadProfile &p)
{
    auto b = p.profiler.opTimeBreakdown();
    return b[static_cast<size_t>(OpClass::Gemm)] +
           b[static_cast<size_t>(OpClass::Gemv)] +
           b[static_cast<size_t>(OpClass::SpMM)] +
           b[static_cast<size_t>(OpClass::Conv)];
}

} // namespace

void
printAblations(const AblationProfiles &runs, std::ostream &os)
{
    TablePrinter bypass("L1 bypass for irregular operators");
    bypass.setHeader({"Workload", "L1 hit (base)", "L1 hit (bypass)",
                      "L2 accesses x", "Kernel time x"});
    TablePrinter fp16("fp16 training vs fp32");
    fp16.setHeader({"Workload", "H2D bytes x", "DRAM-bound time x",
                    "L1 hit (fp32)", "L1 hit (fp16)"});
    TablePrinter compression("Zero-value compression of H2D transfers");
    compression.setHeader({"Workload", "Sparsity", "Transfer time x",
                           "Predicted x (1 - sparsity + 1/32)"});
    TablePrinter inference("GEMM+SpMM+Conv share and step time: "
                           "training vs inference");
    inference.setHeader({"Workload", "Train GEMM-ish", "Infer GEMM-ish",
                         "Train fp32", "Infer fp32", "Infer step x"});
    TablePrinter gens("Generation sensitivity: V100 vs A100-like");
    gens.setHeader({"Workload", "V100 kernel ms", "A100 kernel ms",
                    "Speedup", "V100 L2 hit", "A100 L2 hit"});
    double mean_train = 0, mean_infer = 0;
    for (size_t i = 0; i < runs.baseline.size(); ++i) {
        const WorkloadProfile &base = runs.baseline[i];
        const std::string &name = base.name;

        // The L2 sees more gather traffic when its loads skip the L1.
        const WorkloadProfile &b = runs.l1Bypass[i];
        const double gather_l2 =
            base.profiler.classStats(OpClass::Gather).l2Accesses;
        const double l2_ratio =
            gather_l2 > 0
                ? b.profiler.classStats(OpClass::Gather).l2Accesses /
                      gather_l2
                : 1.0;
        bypass.addRow({name, percent(base.profiler.l1HitRate()),
                       percent(b.profiler.l1HitRate()),
                       fixed(l2_ratio, 2),
                       fixed(kernelTimeRatio(b, base), 3)});

        const WorkloadProfile &h = runs.fp16[i];
        fp16.addRow({name,
                     fixed(h.profiler.totalTransferBytes() /
                               base.profiler.totalTransferBytes(), 2),
                     fixed(kernelTimeRatio(h, base), 3),
                     percent(base.profiler.l1HitRate()),
                     percent(h.profiler.l1HitRate())});

        const double sparsity = base.profiler.avgTransferSparsity();
        compression.addRow(
            {name, percent(sparsity),
             fixed(runs.compressed[i].profiler.totalTransferTimeSec() /
                       base.profiler.totalTransferTimeSec(), 3),
             fixed(1.0 - sparsity + 1.0 / 32.0, 3)});

        const WorkloadProfile &inf = runs.inference[i];
        inference.addRow(
            {name, percent(gemmShare(base)), percent(gemmShare(inf)),
             percent(base.profiler.instructionMix().fp32Frac),
             percent(inf.profiler.instructionMix().fp32Frac),
             fixed(inf.wallTimeSec / base.wallTimeSec, 2)});
        mean_train += gemmShare(base);
        mean_infer += gemmShare(inf);

        const WorkloadProfile &a = runs.a100[i];
        gens.addRow({name,
                     fixed(base.profiler.totalKernelTimeSec() * 1e3, 2),
                     fixed(a.profiler.totalKernelTimeSec() * 1e3, 2),
                     fixed(kernelTimeRatio(base, a), 2),
                     percent(base.profiler.l2HitRate()),
                     percent(a.profiler.l2HitRate())});
    }

    bypass.print(os);
    os << "\n";
    fp16.print(os);
    os << "fp16 halves the transferred bytes; time gains land mostly in "
          "bandwidth-bound kernels.\n\n";
    compression.print(os);
    os << "Compression pays only where copies are both sparse and "
          "large; small latency-bound copies (TLSTM's) gain almost "
          "nothing.\n\n";
    inference.print(os);
    const double n = static_cast<double>(runs.baseline.size());
    os << strfmt("Suite mean GEMM-ish share: training %.1f%%, inference "
                 "%.1f%%\n",
                 mean_train / n * 100.0, mean_infer / n * 100.0);
    os << "Forward-only steps run 2-3x faster and keep the forward\n"
          "op mix (sampling sorts, gathers); the >50% inference-GEMM\n"
          "figure the paper cites is specific to plain-GCN inference\n"
          "(Yan et al.) - see examples/custom_workload for that model.\n\n";
    gens.print(os);
    os << "\n";

    TablePrinter ifetch("Cold instruction-fetch penalty sweep (TLSTM)");
    ifetch.setHeader({"Cold fetch cycles", "IFetch stall share",
                      "Kernel ms"});
    for (const auto &[cycles, p] : runs.coldFetch) {
        ifetch.addRow(
            {strfmt("%d", cycles),
             percent(p.profiler.stallBreakdown()[static_cast<size_t>(
                 StallReason::InstructionFetch)]),
             fixed(p.profiler.totalKernelTimeSec() * 1e3, 2)});
    }
    ifetch.print(os);
    os << "Bigger L2 and cheaper instruction fetch directly attack the "
          "paper's two cache takeaways.\n\n";
}

void
printFaultTolerance(const FaultToleranceResult &result, std::ostream &os)
{
    TablePrinter table(strfmt(
        "Fault-tolerant DDP run: %s (%d -> %d GPUs)",
        result.workload.c_str(), result.worldStart, result.worldEnd));
    table.setHeader({"Fault", "At (ms)", "Replica", "Detect (ms)",
                     "Rollback (ms)", "Re-shard (ms)", "Drag (ms)",
                     "Lost iters", "World"});
    for (const FaultRecord &e : result.events) {
        table.addRow({faultKindName(e.kind),
                      fixed(e.simTimeSec * 1e3, 2),
                      strfmt("%d", e.replica),
                      fixed(e.detectionSec * 1e3, 2),
                      fixed(e.rollbackSec * 1e3, 2),
                      fixed(e.reshardSec * 1e3, 2),
                      fixed(e.slowdownSec * 1e3, 2),
                      strfmt("%d", e.lostIterations),
                      strfmt("%d->%d", e.worldBefore, e.worldAfter)});
    }
    table.print(os);

    os << strfmt("Iterations: %d target, %d executed (%d replayed)\n",
                 result.targetIterations, result.executedIterations,
                 result.replayedIterations);
    os << strfmt("Time: %.2f ms total vs %.2f ms ideal "
                 "(checkpointing %.2f ms, recovery %.2f ms)\n",
                 result.totalTimeSec * 1e3, result.idealTimeSec * 1e3,
                 result.checkpointTimeSec * 1e3,
                 result.recoveryTimeSec * 1e3);
    os << strfmt("Goodput vs ideal: %.1f%%\n\n",
                 result.goodput * 100.0);
}

void
printWorkloadSummary(const WorkloadProfile &p, std::ostream &os)
{
    auto mix = p.profiler.instructionMix();
    TablePrinter table(p.name + " summary");
    table.setHeader({"Metric", "Value"});
    if (!p.losses.empty()) {
        table.addRow({"loss (first -> last)",
                      strfmt("%.4f -> %.4f", p.losses.front(),
                             p.losses.back())});
    }
    table.addRow({"kernel launches",
                  strfmt("%lld", static_cast<long long>(
                                     p.profiler.totalLaunches()))});
    table.addRow({"kernel time",
                  strfmt("%.3f ms",
                         p.profiler.totalKernelTimeSec() * 1e3)});
    table.addRow({"epoch time (est.)",
                  strfmt("%.3f ms", p.epochTimeSec * 1e3)});
    table.addRow({"GFLOPS / GIOPS",
                  strfmt("%.1f / %.1f", p.profiler.gflops(),
                         p.profiler.giops())});
    table.addRow({"IPC", strfmt("%.2f", p.profiler.avgIpc())});
    table.addRow({"instruction mix",
                  strfmt("int32 %.1f%% fp32 %.1f%%",
                         mix.int32Frac * 100, mix.fp32Frac * 100)});
    table.addRow({"L1 / L2 hit rate",
                  strfmt("%.1f%% / %.1f%%",
                         p.profiler.l1HitRate() * 100,
                         p.profiler.l2HitRate() * 100)});
    table.addRow({"divergent loads",
                  strfmt("%.1f%%",
                         p.profiler.divergentLoadFraction() * 100)});
    table.addRow({"H2D sparsity",
                  strfmt("%.1f%%",
                         p.profiler.avgTransferSparsity() * 100)});
    table.print(os);
    os << "\n";
    printKernelTable(p, os);
}

void
printKernelTable(const WorkloadProfile &profile, std::ostream &os,
                 int top_n)
{
    std::vector<std::pair<std::string, const OpClassStats *>> rows;
    for (const auto &[name, stats] : profile.profiler.kernelStats())
        rows.emplace_back(name, &stats);
    std::sort(rows.begin(), rows.end(), [](const auto &a, const auto &b) {
        return a.second->timeSec > b.second->timeSec;
    });

    TablePrinter table(
        strfmt("Top kernels for %s (nvprof-style)",
               profile.name.c_str()));
    table.setHeader({"Kernel", "Time (us)", "Calls", "Share"});
    const double total = profile.profiler.totalKernelTimeSec();
    for (int i = 0;
         i < top_n && i < static_cast<int>(rows.size()); ++i) {
        table.addRow({rows[i].first,
                      fixed(rows[i].second->timeSec * 1e6, 1),
                      strfmt("%lld", static_cast<long long>(
                                         rows[i].second->launches)),
                      percent(total > 0
                                  ? rows[i].second->timeSec / total
                                  : 0.0)});
    }
    table.print(os);
    os << "\n";
}

void
printMemstats(const std::vector<WorkloadProfile> &profiles,
              std::ostream &os)
{
    TablePrinter table("Host allocator behaviour (--memstats)");
    table.setHeader({"Workload", "Mode", "Peak bytes", "Slabs",
                     "Requests", "Heap calls", "Hit rate",
                     "Steady allocs/iter"});
    for (const WorkloadProfile &p : profiles) {
        const AllocSummary &m = p.memStats;
        table.addRow(
            {p.name, m.mode, formatBytes(m.bytesPeak),
             strfmt("%llu", static_cast<unsigned long long>(
                                m.slabsMapped)),
             strfmt("%llu", static_cast<unsigned long long>(
                                m.requestsTotal)),
             strfmt("%llu", static_cast<unsigned long long>(
                                m.heapCallsTotal)),
             percent(m.cacheHitRate),
             strfmt("%llu", static_cast<unsigned long long>(
                                m.steadyAllocCallsPerIter))});
    }
    table.print(os);
    os << "\n";
}

void
printServing(const serve::ServingReport &rep, std::ostream &os)
{
    os << strfmt("Serving: %s arrivals @ %.0f req/s for %.1f s, "
                 "SLO %.1f ms, %d replicas, batch <= %d, faults=%s\n",
                 rep.arrival.c_str(), rep.ratePerSec, rep.durationSec,
                 rep.sloMs, rep.replicas, rep.maxBatch,
                 rep.faultScenario.c_str());
    os << strfmt("Robustness: hedge=%s shed=%s fallback=%s\n",
                 rep.hedgeEnabled ? "on" : "off",
                 rep.shedEnabled ? "on" : "off",
                 rep.fallbackEnabled ? "on" : "off");

    TablePrinter outcomes("Request outcomes");
    outcomes.setHeader({"Offered", "Full", "Fallback", "Shed", "Lost",
                        "SLO met", "Goodput/s"});
    outcomes.addRow({strfmt("%lld", (long long)rep.offered),
                     strfmt("%lld", (long long)rep.full),
                     strfmt("%lld", (long long)rep.fallback),
                     strfmt("%lld", (long long)rep.shed),
                     strfmt("%lld", (long long)rep.lost),
                     strfmt("%lld", (long long)rep.sloMet),
                     fixed(rep.goodputPerSec, 1)});
    outcomes.print(os);

    TablePrinter latency("Latency over answered requests (ms)");
    latency.setHeader({"p50", "p95", "p99", "mean", "max"});
    latency.addRow({fixed(rep.p50Ms, 2), fixed(rep.p95Ms, 2),
                    fixed(rep.p99Ms, 2), fixed(rep.meanMs, 2),
                    fixed(rep.maxMs, 2)});
    latency.print(os);

    os << strfmt("Mechanics: %lld retries, %lld hedges (%lld won), "
                 "%lld timeouts, %lld breaker opens, cache hit rate "
                 "%.1f%%\n",
                 (long long)rep.retries, (long long)rep.hedgesLaunched,
                 (long long)rep.hedgeWins, (long long)rep.timeouts,
                 (long long)rep.breakerOpens, rep.cacheHitRate * 100.0);
    os << strfmt("Batching: %lld batches, mean size %.2f, "
                 "utilization %.1f%% (%.2f ms useful, %.2f ms "
                 "cancelled), horizon %.1f ms\n",
                 (long long)rep.batches, rep.meanBatchSize,
                 rep.utilization * 100.0, rep.busySec * 1e3,
                 rep.cancelledSec * 1e3, rep.horizonSec * 1e3);

    TablePrinter replicas("Per-replica accounting");
    replicas.setHeader({"Replica", "Done", "Cancelled", "Timeouts",
                        "Opens", "Breaker", "Busy (ms)", "Waste (ms)"});
    for (const serve::ReplicaReport &r : rep.perReplica) {
        replicas.addRow({strfmt("%d", r.replica),
                         strfmt("%lld", (long long)r.batchesCompleted),
                         strfmt("%lld", (long long)r.batchesCancelled),
                         strfmt("%lld", (long long)r.timeouts),
                         strfmt("%lld", (long long)r.breakerOpens),
                         r.breakerFinal, fixed(r.busySec * 1e3, 2),
                         fixed(r.cancelledSec * 1e3, 2)});
    }
    replicas.print(os);

    if (rep.windowSec > 0) {
        TablePrinter timeline(strfmt(
            "Timeline (%.0f ms windows, SLO target %.2f%%, "
            "budget consumed %.1f%%)",
            rep.windowSec * 1e3, rep.sloTarget * 100.0,
            rep.budgetConsumed * 100.0));
        timeline.setHeader({"Win", "t (ms)", "Offered", "OK", "Shed",
                            "Lost", "p50", "p95", "p99", "Goodput/s",
                            "Queue", "Burn"});
        for (const serve::ServingWindow &w : rep.windows) {
            timeline.addRow(
                {strfmt("%lld", (long long)w.index),
                 fixed(w.startSec * 1e3, 0),
                 strfmt("%lld", (long long)w.offered),
                 strfmt("%lld", (long long)w.sloMet),
                 strfmt("%lld", (long long)w.shed),
                 strfmt("%lld", (long long)w.lost),
                 fixed(w.p50Ms, 2), fixed(w.p95Ms, 2),
                 fixed(w.p99Ms, 2), fixed(w.goodputPerSec, 0),
                 fixed(w.queueDepthMean, 1), fixed(w.burnRate, 1)});
        }
        timeline.print(os);

        if (rep.alerts.empty()) {
            os << "SLO alerts: none\n";
        } else {
            TablePrinter alerts("SLO burn-rate alerts");
            alerts.setHeader({"Rule", "Severity", "From (ms)",
                              "To (ms)", "Peak burn", "Err %"});
            for (const obs::SloAlert &a : rep.alerts) {
                alerts.addRow({a.rule, a.severity,
                               fixed(a.startSec * 1e3, 0),
                               fixed(a.endSec * 1e3, 0),
                               fixed(a.peakBurn, 1),
                               fixed(a.errorFraction * 100.0, 1)});
            }
            alerts.print(os);
        }
    }
    if (rep.traceSampleEvery > 0) {
        os << strfmt("Tracing: every %lld-th request + exemplars, "
                     "%lld span chains kept\n",
                     (long long)rep.traceSampleEvery,
                     (long long)rep.tracedRequests);
    }
    os << "\n";
}

void
printGen(const gen::GenReport &rep, std::ostream &os)
{
    os << strfmt("Generation: family=%s n=%lld (requested %lld) "
                 "target_edges=%lld chunks=%lld lookahead=%lld "
                 "seed=%llu threads=%d\n",
                 rep.family.c_str(), (long long)rep.vertices,
                 (long long)rep.requestedVertices,
                 (long long)rep.targetEdges, (long long)rep.chunks,
                 (long long)rep.lookahead,
                 (unsigned long long)rep.seed, rep.threads);

    TablePrinter stream("Edge stream");
    stream.setHeader({"Edges", "Chunks", "Checksum", "Peak res (MiB)",
                      "Budget (MiB)", "Wall (s)", "Edges/s"});
    stream.addRow({strfmt("%lld", (long long)rep.edges),
                   strfmt("%lld", (long long)rep.chunksEmitted),
                   strfmt("%016llx", (unsigned long long)rep.checksum),
                   fixed(rep.peakResidentBytes / (1024.0 * 1024.0), 2),
                   fixed(rep.residentBudgetBytes / (1024.0 * 1024.0), 2),
                   fixed(rep.wallSec, 3),
                   strfmt("%.3g", rep.edgesPerSec)});
    stream.print(os);

    if (const std::optional<gen::DegreeStats> &d = rep.degrees) {
        TablePrinter deg("Degree distribution");
        deg.setHeader({"Tracked", "Stride", "Min", "Max", "Mean",
                       "Modal", "Modal %", "Distinct", "LogLog slope"});
        deg.addRow({strfmt("%lld", (long long)d->vertices),
                    strfmt("%lld", (long long)d->sampleStride),
                    strfmt("%lld", (long long)d->minDegree),
                    strfmt("%lld", (long long)d->maxDegree),
                    fixed(d->meanDegree, 2),
                    strfmt("%lld", (long long)d->modalDegree),
                    fixed(d->modalFraction * 100.0, 1),
                    strfmt("%lld", (long long)d->distinctDegrees),
                    d->slopeValid ? fixed(d->powerLawSlope, 3)
                                  : std::string("n/a")});
        deg.print(os);
    }

    if (const std::optional<gen::StreamTrainResult> &t = rep.training) {
        TablePrinter train("Streamed training");
        train.setHeader({"Batches", "Edges consumed", "First loss",
                         "Last loss", "Peak res (MiB)"});
        train.addRow(
            {strfmt("%lld", (long long)t->batches),
             strfmt("%lld", (long long)t->edgesConsumed),
             strfmt("%.4g", t->firstLoss),
             strfmt("%.4g", t->lastLoss),
             fixed(t->peakResidentBytes / (1024.0 * 1024.0), 2)});
        train.print(os);

        if (rep.trainWindowChunks > 0) {
            TablePrinter wins(strfmt(
                "Training timeline (%lld-chunk windows)",
                (long long)rep.trainWindowChunks));
            wins.setHeader({"Win", "Chunks", "Edges", "Mean loss",
                            "Min loss", "Max loss"});
            for (const gen::GenTrainWindow &w : rep.trainWindows) {
                wins.addRow({strfmt("%lld", (long long)w.index),
                             strfmt("%lld", (long long)w.chunks),
                             strfmt("%lld", (long long)w.edges),
                             strfmt("%.4g", w.meanLoss),
                             strfmt("%.4g", w.minLoss),
                             strfmt("%.4g", w.maxLoss)});
            }
            wins.print(os);
        }
    }
    os << "\n";
}

void
printOpstats(std::ostream &os)
{
    const ops::DispatchStats s = ops::Dispatch::instance().stats();
    TablePrinter table("Operator dispatch (--opstats)");
    table.setHeader({"Op", "Variant", "Calls"});
    table.addRow({"gemm", "naive",
                  strfmt("%lld", (long long)s.gemmNaive)});
    table.addRow({"gemm", "tiled",
                  strfmt("%lld", (long long)s.gemmTiled)});
    table.addRow({"spmm", "csr_scalar",
                  strfmt("%lld", (long long)s.spmmCsrScalar)});
    table.addRow({"spmm", "csr_vector",
                  strfmt("%lld", (long long)s.spmmCsrVector)});
    table.addRow({"spmm", "coo",
                  strfmt("%lld", (long long)s.spmmCoo)});
    table.addRow({"spmm", "bell",
                  strfmt("%lld", (long long)s.spmmBell)});
    table.print(os);
    os << strfmt("  simd: %s   calibration: %s, %.3f ms\n\n",
                 s.simd ? "avx2" : "scalar",
                 s.calibrated ? "ran" : "not run", s.calibMs);
}

} // namespace reports
} // namespace gnnmark
