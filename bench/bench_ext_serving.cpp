/**
 * @file
 * Extension: SLO-aware serving under faults — the load sweep behind
 * the robustness claim. For each offered-load point (a fraction of
 * the healthy pool's max-batch capacity) the bench runs the serving
 * simulator twice under the same straggler fault plan: once with the
 * full robustness stack (hedging, shedding, cache fallback, circuit
 * breakers) and once with everything off. The headline column is the
 * ratio of SLO-within-deadline goodput between the two — the stack
 * must buy >= 2x at the stressed operating points.
 *
 * With an output path argument the bench also writes a JSONL twin
 * (one "serving" record per run, via reports::servingRecordJson) in
 * which every field derives from simulated time and seeded
 * randomness, so tools/bench_diff gates it exactly (tolerance 0)
 * against bench/baselines/ext_serving.jsonl. The gated configuration
 * is pinned — GNNMARK_SCALE/GNNMARK_ITERS are deliberately ignored
 * here, as they would silently invalidate the baseline.
 */

#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "base/string_utils.hh"
#include "base/table.hh"
#include "core/reports_json.hh"
#include "models/ego_net.hh"
#include "serve/cost_model.hh"
#include "serve/server.hh"
#include "sim/gpu_device.hh"

using namespace gnnmark;

namespace {

constexpr int kReplicas = 3;
constexpr int kMaxBatch = 8;
constexpr double kDurationSec = 0.5;

/** One replica straggling 6x across most of the arrival window. */
FaultPlan
stragglerPlan()
{
    FaultEvent e;
    e.kind = FaultKind::Straggler;
    e.timeSec = 0.15 * kDurationSec;
    e.durationSec = 0.70 * kDurationSec;
    e.replica = 1;
    e.magnitude = 6.0;
    return FaultPlan({e});
}

serve::ServingReport
runPoint(const serve::BatchCostTable &table, int64_t catalog,
         uint64_t seed, double rate, double slo_sec, bool robust)
{
    serve::ServeOptions opt;
    opt.traffic.ratePerSec = rate;
    opt.traffic.durationSec = kDurationSec;
    opt.traffic.sloSec = slo_sec;
    opt.traffic.seed = seed;
    opt.traffic.catalogItems = catalog;
    opt.replicas = kReplicas;
    opt.maxBatch = kMaxBatch;
    opt.faults = stragglerPlan();
    opt.faultScenario = "straggler";
    opt.hedgeEnabled = robust;
    opt.shedEnabled = robust;
    opt.fallbackEnabled = robust;
    opt.breakerEnabled = robust;
    opt.mirrorMetrics = false; // keep the global registry quiet
    return serve::ServingSimulator(table, opt).run();
}

} // namespace

int
main(int argc, char **argv)
{
    // Pinned (no env overrides): the JSONL twin is diffed exactly
    // against a committed baseline.
    const double scale = 1.0;
    const uint64_t seed = 2021; // the benches' seed, the paper's year

    std::cout << "Pricing ego-net inference batches on the simulated "
                 "V100...\n";
    EgoNetBatchModel model(scale, seed);
    GpuDevice device(GpuConfig::v100(), seed);
    const serve::BatchCostTable table =
        serve::priceBatchCosts(model, device, kMaxBatch, seed);
    const double batch_cost = table.costSec(kMaxBatch);
    const double capacity = kReplicas * kMaxBatch / batch_cost;
    const double slo_sec = 5.0 * batch_cost;
    std::cout << strfmt(
        "Batch cost %.3f ms at size %d -> pool capacity %.0f req/s, "
        "SLO %.2f ms\n\n",
        batch_cost * 1e3, kMaxBatch, capacity, slo_sec * 1e3);

    const std::vector<double> load_fractions = {0.4, 0.7, 1.0, 1.3};

    TablePrinter table_out(strfmt(
        "Goodput under a 6x straggler (%d replicas, batch <= %d): "
        "robustness stack on vs off",
        kReplicas, kMaxBatch));
    table_out.setHeader({"Load", "Offered", "Goodput on", "Goodput off",
                         "Ratio", "p99 on (ms)", "p99 off (ms)", "Shed",
                         "Hedges", "Retries off", "Fallback"});

    std::vector<std::pair<std::string, serve::ServingReport>> records;
    bool sweep_ok = true;
    for (double frac : load_fractions) {
        const double rate = frac * capacity;
        const serve::ServingReport on =
            runPoint(table, model.numItems(), seed, rate, slo_sec,
                     /*robust=*/true);
        const serve::ServingReport off =
            runPoint(table, model.numItems(), seed, rate, slo_sec,
                     /*robust=*/false);
        const double ratio =
            off.goodputPerSec > 0
                ? on.goodputPerSec / off.goodputPerSec
                : (on.goodputPerSec > 0 ? 999.0 : 1.0);
        // The stack must never hurt, and must pay for itself once the
        // straggler actually bites (>= 70% load).
        if (ratio < (frac >= 0.7 ? 2.0 : 0.98))
            sweep_ok = false;
        table_out.addRow(
            {strfmt("%.0f%%", frac * 100),
             strfmt("%lld", (long long)on.offered),
             fixed(on.goodputPerSec, 0), fixed(off.goodputPerSec, 0),
             fixed(ratio, 2), fixed(on.p99Ms, 2), fixed(off.p99Ms, 2),
             strfmt("%lld", (long long)on.shed),
             strfmt("%lld", (long long)on.hedgesLaunched),
             strfmt("%lld", (long long)off.retries),
             strfmt("%lld", (long long)on.fallback)});
        records.emplace_back(strfmt("straggler-%03.0f-on", frac * 100),
                             on);
        records.emplace_back(strfmt("straggler-%03.0f-off", frac * 100),
                             off);
    }
    table_out.print(std::cout);
    std::cout << "\nThe all-off baseline keeps answering late (or "
                 "losing work to the straggler);\nthe stack sheds "
                 "infeasible requests, hedges slow batches and serves "
                 "cache\nfallbacks, so deadline-met goodput holds up "
                 "under the same offered load.\n";
    if (!sweep_ok)
        std::cout << "\nWARNING: robustness win below the expected "
                     "margin at some operating point.\n";

    if (argc > 1) {
        std::ofstream out(argv[1]);
        if (!out) {
            std::cerr << "cannot open " << argv[1]
                      << " for writing\n";
            return 2;
        }
        for (const auto &rec : records)
            out << reports::servingRecordJson(rec.first, rec.second)
                << "\n";
        std::cout << "\nWrote serving records to " << argv[1] << "\n";
    }
    return sweep_ok ? 0 : 1;
}
