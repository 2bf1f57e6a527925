/**
 * @file
 * Extension: host allocator behaviour. Two angles on the caching
 * arena vs. plain posix_memalign:
 *
 *   1. A pure tensor-churn loop (allocate / drop a deterministic mix
 *      of buffer sizes) isolating allocator overhead from training.
 *   2. Steady-state training iterations of two allocation-heavy
 *      workloads (PinSAGE sampling, STGCN conv pipeline) run once per
 *      allocator mode via RunOptions::allocator.
 *
 * With an output path argument the bench additionally writes a JSONL
 * twin containing only allocator *counters* (requests, heap calls,
 * cache hits, peak bytes) — all deterministic for a fixed build, so
 * tools/bench_diff can gate them exactly (--tol 0) against
 * bench/baselines/ext_allocator.jsonl. Wall-clock numbers stay in the
 * human table only.
 */

#include <chrono>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "base/allocator.hh"
#include "base/string_utils.hh"
#include "base/table.hh"
#include "base/units.hh"
#include "core/characterization.hh"
#include "obs/json.hh"
#include "ops/exec_context.hh"
#include "tensor/tensor.hh"

using namespace gnnmark;

namespace {

struct ChurnResult
{
    std::string mode;
    double wallMs = 0.0;
    AllocStats delta; ///< stats accrued by the churn loop alone
};

/**
 * Allocate and drop a deterministic mix of tensor sizes, keeping a
 * small live window so free lists actually get exercised. Mirrors the
 * lifetime pattern of a training tape: most buffers die young, a few
 * persist across the round.
 */
ChurnResult
churn(Allocator &alloc, int rounds)
{
    ContextGuard guard(nullptr, &alloc);
    const AllocStats before = alloc.stats();
    const auto t0 = std::chrono::steady_clock::now();

    std::vector<Tensor> live;
    for (int r = 0; r < rounds; ++r) {
        live.clear();
        for (int i = 0; i < 64; ++i) {
            const int64_t rows = 1 + (i * 37 + r * 11) % 512;
            const int64_t cols = 1 + (i * 13) % 128;
            Tensor t = Tensor::empty({rows, cols});
            t.data()[0] = 1.0f; // touch the block
            if (i % 8 == 0)
                live.push_back(t); // survives to end of round
        }
    }
    live.clear();

    const auto t1 = std::chrono::steady_clock::now();
    const AllocStats after = alloc.stats();
    ChurnResult res;
    res.mode = alloc.name();
    res.wallMs =
        std::chrono::duration<double, std::milli>(t1 - t0).count();
    res.delta.requests = after.requests - before.requests;
    res.delta.releases = after.releases - before.releases;
    res.delta.cacheHits = after.cacheHits - before.cacheHits;
    res.delta.heapCalls = after.heapCalls - before.heapCalls;
    return res;
}

struct WorkloadResult
{
    std::string workload;
    AllocSummary mem;
    double wallSec = 0.0;
};

WorkloadResult
runWorkload(const std::string &name, Allocator &alloc,
            const RunOptions &base)
{
    RunOptions opt = base;
    opt.allocator = &alloc;
    const auto t0 = std::chrono::steady_clock::now();
    CharacterizationRunner runner(opt);
    WorkloadProfile profile = runner.run(name);
    const auto t1 = std::chrono::steady_clock::now();
    WorkloadResult res;
    res.workload = name;
    res.mem = profile.memStats;
    res.wallSec = std::chrono::duration<double>(t1 - t0).count();
    return res;
}

} // namespace

int
main(int argc, char **argv)
{
    const int kChurnRounds = 200;
    // The JSONL twin is diffed *exactly* against a committed baseline,
    // so the gated configuration is pinned.
    RunOptions opt;
    opt.scale = 0.25;
    opt.iterations = 4;
    opt.seed = 2021; // the paper's year

    std::cout << "Host allocator behaviour: caching arena vs plain "
                 "heap calls...\n\n";

    const ChurnResult churn_sys = churn(systemAllocator(), kChurnRounds);
    const ChurnResult churn_cached =
        churn(cachingAllocator(), kChurnRounds);

    TablePrinter churn_table(
        strfmt("Tensor churn, %d rounds x 64 buffers", kChurnRounds));
    churn_table.setHeader(
        {"Mode", "Wall ms", "Requests", "Heap calls", "Cache hits"});
    for (const ChurnResult *c : {&churn_sys, &churn_cached})
        churn_table.addRow({c->mode, fixed(c->wallMs, 2),
                            strfmt("%llu", (unsigned long long)
                                               c->delta.requests),
                            strfmt("%llu", (unsigned long long)
                                               c->delta.heapCalls),
                            strfmt("%llu", (unsigned long long)
                                               c->delta.cacheHits)});
    churn_table.print(std::cout);

    const std::vector<std::string> workloads = {"PSAGE-MVL", "STGCN"};
    std::vector<WorkloadResult> results;
    std::cout << "\n";
    for (const std::string &wl : workloads) {
        for (Allocator *alloc :
             {&systemAllocator(), &cachingAllocator()}) {
            std::cout << "  " << wl << " (" << alloc->name() << ")..."
                      << std::flush;
            results.push_back(runWorkload(wl, *alloc, opt));
            std::cout << " done\n";
        }
    }
    std::cout << "\n";

    TablePrinter table(strfmt(
        "Steady-state training allocations (scale %.2f, %d iters)",
        opt.scale, opt.iterations));
    table.setHeader({"Workload", "Mode", "Allocs/iter", "Reqs/iter",
                     "Hit rate", "Peak bytes", "Wall s"});
    for (const WorkloadResult &r : results)
        table.addRow(
            {r.workload, r.mem.mode,
             strfmt("%llu", (unsigned long long)
                                r.mem.steadyAllocCallsPerIter),
             strfmt("%llu", (unsigned long long)
                                r.mem.steadyRequestsPerIter),
             percent(r.mem.cacheHitRate), formatBytes(r.mem.bytesPeak),
             fixed(r.wallSec, 2)});
    table.print(std::cout);
    std::cout << "\nSteady-state iterations under the caching arena "
                 "recycle every tape buffer\nfreed by the previous "
                 "iteration, so heap traffic collapses to (near) "
                 "zero.\n";

    if (argc > 1) {
        std::ofstream out(argv[1]);
        if (!out) {
            std::cerr << "cannot open " << argv[1] << " for writing\n";
            return 2;
        }
        for (const ChurnResult *c : {&churn_sys, &churn_cached}) {
            obs::JsonWriter w;
            w.beginObject();
            w.key("type").value("allocator_churn");
            w.key("mode").value(c->mode);
            w.key("requests").value((int64_t)c->delta.requests);
            w.key("releases").value((int64_t)c->delta.releases);
            w.key("heap_calls").value((int64_t)c->delta.heapCalls);
            w.key("cache_hits").value((int64_t)c->delta.cacheHits);
            w.endObject();
            out << w.str() << "\n";
        }
        for (const WorkloadResult &r : results) {
            obs::JsonWriter w;
            w.beginObject();
            w.key("type").value("allocator_workload");
            w.key("workload").value(r.workload);
            w.key("mode").value(r.mem.mode);
            w.key("steady_alloc_calls_per_iter")
                .value((int64_t)r.mem.steadyAllocCallsPerIter);
            w.key("steady_requests_per_iter")
                .value((int64_t)r.mem.steadyRequestsPerIter);
            w.key("requests_total")
                .value((int64_t)r.mem.requestsTotal);
            w.key("heap_calls_total")
                .value((int64_t)r.mem.heapCallsTotal);
            w.key("cache_hit_rate").value(r.mem.cacheHitRate);
            w.key("bytes_peak").value((int64_t)r.mem.bytesPeak);
            w.key("slabs_mapped").value((int64_t)r.mem.slabsMapped);
            w.endObject();
            out << w.str() << "\n";
        }
        std::cout << "\nWrote allocator counters to " << argv[1]
                  << "\n";
    }
    return 0;
}
