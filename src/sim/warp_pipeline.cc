#include "sim/warp_pipeline.hh"

#include <algorithm>
#include <bit>
#include <queue>

#include "base/logging.hh"

namespace gnnmark {

namespace {

/** Per-warp execution cursor. */
struct WarpState
{
    const WarpTrace *trace = nullptr;
    size_t pc = 0; ///< next TraceOp index
};

struct HeapEntry
{
    uint64_t ready;
    int warp;
    bool operator>(const HeapEntry &o) const { return ready > o.ready; }
};

} // namespace

WarpPipeline::WarpPipeline(const GpuConfig &config, CacheModel &l1,
                           CacheModel &l2, Rng &rng)
    : cfg_(config), l1_(l1), l2_(l2), rng_(rng)
{
}

WaveResult
WarpPipeline::run(const std::vector<const WarpTrace *> &warps,
                  const KernelDesc &desc)
{
    WaveResult res;

    // Full instruction counts come straight from the traces; the timed
    // replay below covers the recorded prefix and is extrapolated.
    uint64_t recorded_total = 0;
    for (const WarpTrace *w : warps) {
        res.fp32Instrs += static_cast<double>(w->counts.fp32);
        res.int32Instrs += static_cast<double>(w->counts.int32);
        res.memInstrs +=
            static_cast<double>(w->counts.loads + w->counts.stores);
        res.miscInstrs += static_cast<double>(w->counts.misc);
        res.flops += w->counts.flops;
        res.intOps += w->counts.intOps;
        recorded_total += w->recordedInstrs;
    }
    res.issued = res.fp32Instrs + res.int32Instrs + res.memInstrs +
                 res.miscInstrs;
    if (recorded_total == 0)
        return res;
    const double extrapolate =
        std::max(1.0, res.issued / static_cast<double>(recorded_total));

    // Fresh per-kernel I-caches (different code than the last kernel):
    // an L0 miss that also misses the (cold) L1I fetches from the L2 /
    // DRAM — the expensive path behind the paper's instruction-fetch
    // stalls on short kernels.
    CacheModel l0i(cfg_.l0ISizeBytes, cfg_.l0IAssoc, cfg_.cacheLineBytes);
    CacheModel l1i(cfg_.l1ISizeBytes, kL1IAssoc, cfg_.cacheLineBytes);
    const uint64_t code_bytes = std::max<uint64_t>(
        static_cast<uint64_t>(desc.codeBytes), cfg_.cacheLineBytes);
    // Kernel code sizes are almost always powers of two; mask instead
    // of dividing on the per-instruction fetch path when they are.
    const uint64_t code_mask =
        std::has_single_bit(code_bytes) ? code_bytes - 1 : 0;

    const double alu_ilp = desc.aluIlp > 0 ? desc.aluIlp : cfg_.aluIlp;
    const double load_dep = desc.loadDepFraction > 0 ? desc.loadDepFraction
                                                     : cfg_.loadDepFraction;
    const double alu_dep_prob = 1.0 / std::max(1.0, alu_ilp);
    const bool bypass_l1 = cfg_.l1BypassIrregular && desc.irregular;

    std::vector<WarpState> state(warps.size());
    std::priority_queue<HeapEntry, std::vector<HeapEntry>,
                        std::greater<HeapEntry>> pending;
    for (size_t i = 0; i < warps.size(); ++i) {
        state[i].trace = warps[i];
        if (!warps[i]->ops.empty())
            pending.push(HeapEntry{0, static_cast<int>(i)});
    }

    std::vector<int> ready; // FIFO of issuable warps
    std::vector<int> kept;  // port-blocked this cycle (reused buffer)
    std::vector<int> rebuilt; // scratch for the re-queue (reused)
    size_t ready_head = 0;
    uint64_t now = 0;

    auto attribute = [&](StallReason r, double cycles) {
        res.stallCycles[static_cast<size_t>(r)] += cycles;
    };

    // Service one memory instruction; returns dependent-use latency.
    auto service_mem = [&](const WarpTrace &trace, const TraceOp &op,
                           uint64_t &issue_cost) -> uint64_t {
        const bool is_load = op.kind == InstrKind::Load;
        const bool is_atomic = op.kind == InstrKind::Atomic;
        uint64_t worst = 0;
        for (int l = 0; l < op.lineCount; ++l) {
            uint64_t addr = trace.lines[op.lineBegin + l];
            uint64_t lat;
            bool l1_hit = false;
            if (is_load && !bypass_l1 && !is_atomic) {
                l1_hit = l1_.access(addr);
                res.l1Accesses += 1;
                if (l1_hit)
                    res.l1Hits += 1;
            }
            if (l1_hit) {
                lat = cfg_.l1HitLatency;
            } else {
                bool l2_hit = l2_.access(addr);
                res.l2Accesses += 1;
                if (l2_hit) {
                    res.l2Hits += 1;
                    lat = cfg_.l2HitLatency;
                } else {
                    lat = cfg_.dramLatency;
                    res.dramBytes += cfg_.cacheLineBytes;
                }
                if (is_atomic)
                    lat += cfg_.atomicLatency;
            }
            worst = std::max(worst, lat);
        }
        // Divergent requests replay the LD/ST unit per excess line
        // beyond what an aligned coalesced access would need.
        const int extra_lines =
            op.lineCount > op.minLines ? op.lineCount - op.minLines : 0;
        issue_cost =
            1 + static_cast<uint64_t>(extra_lines) *
                    cfg_.divergenceReplayCycles;
        if (is_load) {
            res.loads += 1;
            if (op.divergent())
                res.divergentLoads += 1;
        }
        return worst;
    };

    while (!pending.empty() || ready_head < ready.size()) {
        // Promote warps whose results have landed.
        while (!pending.empty() && pending.top().ready <= now) {
            ready.push_back(pending.top().warp);
            pending.pop();
        }
        if (ready_head == ready.size()) {
            // Nothing issuable: jump to the next wake-up.
            GNN_ASSERT(!pending.empty(), "deadlock in pipeline model");
            now = pending.top().ready;
            continue;
        }

        // Issue up to issueWidth warps, subject to per-port throughput
        // (fp32/int32/LSU/SFU); port-blocked warps stay eligible.
        int slots = cfg_.issueWidth;
        int fp_ports = cfg_.fp32PortsPerCycle;
        int int_ports = cfg_.int32PortsPerCycle;
        int lsu_ports = cfg_.lsuPortsPerCycle;
        int sfu_ports = cfg_.sfuPortsPerCycle;
        kept.clear();
        while (slots > 0 && ready_head < ready.size()) {
            int wi = ready[ready_head++];
            switch (state[wi].trace->ops[state[wi].pc].kind) {
              case InstrKind::Fp32:
              case InstrKind::Fma:
                if (fp_ports == 0) {
                    kept.push_back(wi);
                    continue;
                }
                --fp_ports;
                break;
              case InstrKind::Sfu:
                if (sfu_ports == 0) {
                    kept.push_back(wi);
                    continue;
                }
                --sfu_ports;
                break;
              case InstrKind::Int32:
                if (int_ports == 0) {
                    kept.push_back(wi);
                    continue;
                }
                --int_ports;
                break;
              case InstrKind::Load:
              case InstrKind::Store:
              case InstrKind::Atomic:
              case InstrKind::SharedLoad:
              case InstrKind::SharedStore:
                if (lsu_ports == 0) {
                    kept.push_back(wi);
                    continue;
                }
                --lsu_ports;
                break;
              case InstrKind::Misc:
              case InstrKind::Barrier:
                break; // control issues on any slot
            }
            --slots;
            WarpState &ws = state[wi];
            const WarpTrace &trace = *ws.trace;
            const TraceOp &op = trace.ops[ws.pc];

            // Instruction fetch through the L0 / L1 I-caches.
            uint64_t fetch_delay = 0;
            const uint64_t ibyte =
                static_cast<uint64_t>(ws.pc) * cfg_.instrBytes;
            const uint64_t iaddr =
                code_mask != 0 ? (ibyte & code_mask) : ibyte % code_bytes;
            if (!l0i.access(iaddr)) {
                fetch_delay = l1i.access(iaddr)
                                  ? static_cast<uint64_t>(
                                        cfg_.ifetchMissCycles)
                                  : static_cast<uint64_t>(
                                        cfg_.ifetchColdCycles);
            }

            uint64_t gap = 1; // cycles until this warp may issue again
            StallReason reason = StallReason::ExecutionDependency;
            switch (op.kind) {
              case InstrKind::Fp32:
              case InstrKind::Fma:
              case InstrKind::Int32:
                if (rng_.bernoulli(alu_dep_prob))
                    gap = cfg_.aluLatency;
                break;
              case InstrKind::Sfu:
                gap = rng_.bernoulli(alu_dep_prob) ? cfg_.sfuLatency : 4;
                break;
              case InstrKind::Misc:
                gap = 1;
                break;
              case InstrKind::SharedLoad:
              case InstrKind::SharedStore:
                if (rng_.bernoulli(alu_dep_prob))
                    gap = cfg_.sharedLatency;
                break;
              case InstrKind::Barrier:
                gap = cfg_.barrierCycles;
                reason = StallReason::Synchronization;
                break;
              case InstrKind::Load: {
                uint64_t issue_cost = 1;
                uint64_t lat = service_mem(trace, op, issue_cost);
                reason = StallReason::MemoryDependency;
                gap = rng_.bernoulli(load_dep) ? lat + issue_cost
                                               : issue_cost;
                break;
              }
              case InstrKind::Store:
              case InstrKind::Atomic: {
                uint64_t issue_cost = 1;
                uint64_t lat = service_mem(trace, op, issue_cost);
                reason = StallReason::MemoryDependency;
                if (op.kind == InstrKind::Atomic) {
                    gap = rng_.bernoulli(0.3) ? lat + issue_cost
                                              : issue_cost + 2;
                } else {
                    gap = issue_cost; // stores are fire-and-forget
                }
                break;
              }
            }
            gap = std::max<uint64_t>(1, gap) + fetch_delay;
            if (gap > 1) {
                // Attribute the idle gap: fetch first, remainder to the
                // dependency class of the instruction just issued.
                if (fetch_delay > 0)
                    attribute(StallReason::InstructionFetch,
                              static_cast<double>(fetch_delay));
                uint64_t dep_gap = gap - fetch_delay;
                if (dep_gap > 1)
                    attribute(reason, static_cast<double>(dep_gap - 1));
            }

            ++ws.pc;
            if (ws.pc < trace.ops.size())
                pending.push(HeapEntry{now + gap, wi});
        }

        // Warps that were eligible but lost arbitration (or their
        // execution port) this cycle stay eligible for the next one.
        // The sampled attribution is capped per cycle, matching the
        // per-scheduler view nvprof reports (each scheduler sees at
        // most a few eligible-but-unissued warps).
        double left = static_cast<double>(
            kept.size() + (ready.size() - ready_head));
        if (left > 0) {
            attribute(StallReason::NotSelected,
                      std::min<double>(left, cfg_.issueWidth));
        }
        if (!kept.empty()) {
            // Re-queue port-blocked warps ahead of the unscanned ones.
            rebuilt.clear();
            rebuilt.reserve(kept.size() + ready.size() - ready_head);
            rebuilt.insert(rebuilt.end(), kept.begin(), kept.end());
            rebuilt.insert(rebuilt.end(),
                           ready.begin() + static_cast<long>(ready_head),
                           ready.end());
            ready.swap(rebuilt);
            ready_head = 0;
        } else if (ready_head > 1024) {
            // Compact the FIFO occasionally.
            ready.erase(ready.begin(),
                        ready.begin() + static_cast<long>(ready_head));
            ready_head = 0;
        }
        ++now;
    }

    res.cycles = static_cast<double>(now) * extrapolate;
    for (auto &s : res.stallCycles)
        s *= extrapolate;
    res.loads *= extrapolate;
    res.divergentLoads *= extrapolate;
    res.l1Accesses *= extrapolate;
    res.l1Hits *= extrapolate;
    res.l2Accesses *= extrapolate;
    res.l2Hits *= extrapolate;
    res.dramBytes *= extrapolate;
    return res;
}

} // namespace gnnmark
