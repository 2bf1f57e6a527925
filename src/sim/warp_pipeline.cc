#include "sim/warp_pipeline.hh"

#include <algorithm>
#include <bit>
#include <queue>

#include "base/fast_mod.hh"

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

/** What is left of one cycle's issue slots and execution ports. */
struct Ports
{
    int slots = 0;
    int fp32 = 0;
    int int32 = 0;
    int lsu = 0;
    int sfu = 0;
};

/**
 * One issue loop over a wave, as the members in `members` see it: the
 * whole group until their gaps first differ, then one part of a split.
 * A copy carries everything the loop reads, including how far the
 * current cycle's arbitration got, so it goes on exactly as the
 * original would have.
 */
struct Branch
{
    Branch(size_t warps, CacheModel l0i_, CacheModel l1i_, const Rng &rng_)
        : state(warps), l0i(std::move(l0i_)), l1i(std::move(l1i_)),
          rng(rng_)
    {
    }

    std::vector<int> members;     ///< group indices this loop serves
    std::vector<WarpState> state; ///< per warp
    std::priority_queue<HeapEntry, std::vector<HeapEntry>,
                        std::greater<HeapEntry>> pending;
    std::vector<int> ready; ///< FIFO of issuable warps
    size_t readyHead = 0;
    std::vector<int> kept;  ///< port-blocked this cycle
    bool inCycle = false;   ///< `ports` hold cycle `now`'s arbitration
    Ports ports;
    uint64_t now = 0;
    CacheModel l0i;
    CacheModel l1i;
    Rng rng;
    /** Counters every member of this loop shares, since it began. */
    SimCounters shared;
};

} // namespace

WarpPipeline::WarpPipeline(const GpuConfig &config,
                           std::vector<MemberCaches> members, Rng &rng)
    : cfg_(config), members_(std::move(members)), rng_(rng)
{
    GNN_ASSERT(!members_.empty(), "a pipeline needs at least one member");
}

std::vector<WaveResult>
WarpPipeline::runGroup(const std::vector<const WarpTrace *> &warps,
                       const KernelDesc &desc)
{
    // Full instruction counts come straight from the traces; the timed
    // replay below covers the recorded prefix and is extrapolated.
    WaveResult counts;
    uint64_t recorded_total = 0;
    for (const WarpTrace *w : warps) {
        counts.fp32Instrs += static_cast<double>(w->counts.fp32);
        counts.int32Instrs += static_cast<double>(w->counts.int32);
        counts.memInstrs +=
            static_cast<double>(w->counts.loads + w->counts.stores);
        counts.miscInstrs += static_cast<double>(w->counts.misc);
        counts.flops += w->counts.flops;
        counts.intOps += w->counts.intOps;
        recorded_total += w->recordedInstrs;
    }
    counts.issued = counts.fp32Instrs + counts.int32Instrs +
                    counts.memInstrs + counts.miscInstrs;
    std::vector<WaveResult> results(members_.size(), counts);
    if (recorded_total == 0)
        return results;
    const double extrapolate = std::max(
        1.0, counts.issued / static_cast<double>(recorded_total));

    const uint64_t code_bytes = std::max<uint64_t>(
        static_cast<uint64_t>(desc.codeBytes), cfg_.cacheLineBytes);
    // Kernel code sizes are almost always powers of two; mask instead
    // of reducing on the per-instruction fetch path when they are.
    const uint64_t code_mask =
        std::has_single_bit(code_bytes) ? code_bytes - 1 : 0;
    const FastMod code_mod(code_bytes);

    const double alu_ilp = desc.aluIlp > 0 ? desc.aluIlp : cfg_.aluIlp;
    const double load_dep = desc.loadDepFraction > 0 ? desc.loadDepFraction
                                                     : cfg_.loadDepFraction;
    const double alu_dep_prob = 1.0 / std::max(1.0, alu_ilp);
    const bool bypass_l1 = cfg_.l1BypassIrregular && desc.irregular;

    // Fresh per-kernel I-caches (different code than the last kernel):
    // an L0 miss that also misses the (cold) L1I fetches from the L2 /
    // DRAM — the expensive path behind the paper's instruction-fetch
    // stalls on short kernels.
    std::vector<Branch> parts; // loops still to run, the whole group first
    parts.emplace_back(
        warps.size(),
        CacheModel(cfg_.l0ISizeBytes, cfg_.l0IAssoc, cfg_.cacheLineBytes),
        CacheModel(cfg_.l1ISizeBytes, kL1IAssoc, cfg_.cacheLineBytes), rng_);
    Branch &whole = parts.back();
    for (size_t m = 0; m < members_.size(); ++m)
        whole.members.push_back(static_cast<int>(m));
    for (size_t i = 0; i < warps.size(); ++i) {
        whole.state[i].trace = warps[i];
        if (!warps[i]->ops.empty())
            whole.pending.push(HeapEntry{0, static_cast<int>(i)});
    }

    std::vector<int> rebuilt; // scratch for the re-queue (reused)
    // Per member of the issuing loop, the last memory op's worst-line
    // latency.
    std::vector<uint64_t> worst(members_.size());

    // Service one memory instruction for each member of `b`, leaving
    // its dependent-use latency in `worst`; returns the issue cost.
    auto service_mem = [&](Branch &b, const WarpTrace &trace,
                           const TraceOp &op)
        __attribute__((always_inline)) -> uint64_t {
        const bool is_load = op.kind == InstrKind::Load;
        const bool is_atomic = op.kind == InstrKind::Atomic;
        const uint64_t *lines = trace.lines.data() + op.lineBegin;
        for (size_t j = 0; j < b.members.size(); ++j) {
            const int m = b.members[j];
            CacheModel &l1 = *members_[m].l1;
            CacheModel &l2 = *members_[m].l2;
            WaveResult &res = results[m];
            uint64_t lat_max = 0;
            for (int l = 0; l < op.lineCount; ++l) {
                const uint64_t addr = lines[l];
                uint64_t lat;
                bool l1_hit = false;
                if (is_load && !bypass_l1) {
                    l1_hit = l1.access(addr);
                    res.l1Accesses += 1;
                    if (l1_hit)
                        res.l1Hits += 1;
                }
                if (l1_hit) {
                    lat = cfg_.l1HitLatency;
                } else {
                    bool l2_hit = l2.access(addr);
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
                lat_max = std::max(lat_max, lat);
            }
            worst[j] = lat_max;
        }
        if (is_load) {
            b.shared.loads += 1;
            if (op.divergent())
                b.shared.divergentLoads += 1;
        }
        // Divergent requests replay the LD/ST unit per excess line
        // beyond what an aligned coalesced access would need.
        const int extra_lines =
            op.lineCount > op.minLines ? op.lineCount - op.minLines : 0;
        return 1 + static_cast<uint64_t>(extra_lines) *
                       cfg_.divergenceReplayCycles;
    };

    // Finish issuing the op of warp `wi` at cycle `now` in `b`, given
    // its gap before the fetch delay.
    auto finish = [&](Branch &b, int wi, uint64_t now, uint64_t gap,
                      uint64_t fetch_delay,
                      StallReason reason) __attribute__((always_inline)) {
        gap = std::max<uint64_t>(1, gap) + fetch_delay;
        if (gap > 1) {
            // Attribute the idle gap: fetch first, remainder to the
            // dependency class of the instruction just issued.
            auto &stalls = b.shared.stallCycles;
            if (fetch_delay > 0) {
                stalls[static_cast<size_t>(StallReason::InstructionFetch)] +=
                    static_cast<double>(fetch_delay);
            }
            uint64_t dep_gap = gap - fetch_delay;
            if (dep_gap > 1) {
                stalls[static_cast<size_t>(reason)] +=
                    static_cast<double>(dep_gap - 1);
            }
        }
        WarpState &ws = b.state[wi];
        if (++ws.pc < ws.trace->ops.size())
            b.pending.push(HeapEntry{now + gap, wi});
    };

    // The members of `b` wait out different latencies after warp `wi`'s
    // memory op: hand the shared counters to them, then go on with
    // member 0's latency in `b` and each other latency in a copy. `b`
    // holds the loop's whole state.
    auto split = [&](Branch &b, int wi, uint64_t issue_cost,
                     uint64_t fetch_delay,
                     StallReason reason) __attribute__((noinline)) {
        for (int m : b.members)
            results[m] += b.shared;
        b.shared = SimCounters{};
        const std::vector<int> members = std::move(b.members);
        const std::vector<uint64_t> lat(worst.begin(),
                                        worst.begin() + members.size());
        std::vector<bool> placed(members.size(), false);
        for (size_t first = 0; first < members.size(); ++first) {
            if (placed[first])
                continue;
            std::vector<int> part;
            for (size_t j = first; j < members.size(); ++j) {
                if (!placed[j] && lat[j] == lat[first]) {
                    placed[j] = true;
                    part.push_back(members[j]);
                }
            }
            if (first == 0) {
                b.members = std::move(part);
                continue;
            }
            parts.push_back(b);
            Branch &copy = parts.back();
            copy.members = std::move(part);
            finish(copy, wi, copy.now, lat[first] + issue_cost, fetch_delay,
                   reason);
        }
        finish(b, wi, b.now, lat[0] + issue_cost, fetch_delay, reason);
    };

    bool ended = false; // a loop has finished; rng_ holds its RNG
    while (!parts.empty()) {
        Branch b = std::move(parts.back());
        parts.pop_back();
        // The loop's hot scalars live in locals; `b` gets them back
        // before a split copies it.
        uint64_t now = b.now;
        size_t ready_head = b.readyHead;
        bool in_cycle = b.inCycle;
        Ports ports = b.ports;
        Rng rng = b.rng;
        for (;;) {
            if (!in_cycle) {
                // Promote warps whose results have landed.
                while (!b.pending.empty() && b.pending.top().ready <= now) {
                    b.ready.push_back(b.pending.top().warp);
                    b.pending.pop();
                }
                if (ready_head == b.ready.size()) {
                    if (b.pending.empty())
                        break; // the wave is over
                    // Nothing issuable: jump to the next wake-up.
                    now = b.pending.top().ready;
                    continue;
                }
                ports = {cfg_.issueWidth, cfg_.fp32PortsPerCycle,
                         cfg_.int32PortsPerCycle, cfg_.lsuPortsPerCycle,
                         cfg_.sfuPortsPerCycle};
                b.kept.clear();
                in_cycle = true;
            }

            // Issue up to issueWidth warps, subject to per-port
            // throughput (fp32/int32/LSU/SFU); port-blocked warps stay
            // eligible.
            while (ports.slots > 0 && ready_head < b.ready.size()) {
                const int wi = b.ready[ready_head++];
                WarpState &ws = b.state[wi];
                const WarpTrace &trace = *ws.trace;
                const TraceOp &op = trace.ops[ws.pc];
                switch (op.kind) {
                  case InstrKind::Fp32:
                  case InstrKind::Fma:
                    if (ports.fp32 == 0) {
                        b.kept.push_back(wi);
                        continue;
                    }
                    --ports.fp32;
                    break;
                  case InstrKind::Sfu:
                    if (ports.sfu == 0) {
                        b.kept.push_back(wi);
                        continue;
                    }
                    --ports.sfu;
                    break;
                  case InstrKind::Int32:
                    if (ports.int32 == 0) {
                        b.kept.push_back(wi);
                        continue;
                    }
                    --ports.int32;
                    break;
                  case InstrKind::Load:
                  case InstrKind::Store:
                  case InstrKind::Atomic:
                  case InstrKind::SharedLoad:
                  case InstrKind::SharedStore:
                    if (ports.lsu == 0) {
                        b.kept.push_back(wi);
                        continue;
                    }
                    --ports.lsu;
                    break;
                  case InstrKind::Misc:
                  case InstrKind::Barrier:
                    break; // control issues on any slot
                }
                --ports.slots;

                // Instruction fetch through the L0 / L1 I-caches.
                uint64_t fetch_delay = 0;
                const uint64_t ibyte =
                    static_cast<uint64_t>(ws.pc) * cfg_.instrBytes;
                const uint64_t iaddr =
                    code_mask != 0 ? (ibyte & code_mask) : code_mod(ibyte);
                if (!b.l0i.access(iaddr)) {
                    fetch_delay =
                        b.l1i.access(iaddr)
                            ? static_cast<uint64_t>(cfg_.ifetchMissCycles)
                            : static_cast<uint64_t>(cfg_.ifetchColdCycles);
                }

                uint64_t gap = 1; // cycles until this warp may issue again
                StallReason reason = StallReason::ExecutionDependency;
                bool waits = false; // gap adds each member's latency
                switch (op.kind) {
                  case InstrKind::Fp32:
                  case InstrKind::Fma:
                  case InstrKind::Int32:
                    if (rng.bernoulli(alu_dep_prob))
                        gap = cfg_.aluLatency;
                    break;
                  case InstrKind::Sfu:
                    gap = rng.bernoulli(alu_dep_prob) ? cfg_.sfuLatency : 4;
                    break;
                  case InstrKind::Misc:
                    gap = 1;
                    break;
                  case InstrKind::SharedLoad:
                  case InstrKind::SharedStore:
                    if (rng.bernoulli(alu_dep_prob))
                        gap = cfg_.sharedLatency;
                    break;
                  case InstrKind::Barrier:
                    gap = cfg_.barrierCycles;
                    reason = StallReason::Synchronization;
                    break;
                  case InstrKind::Load:
                  case InstrKind::Store:
                  case InstrKind::Atomic:
                    gap = service_mem(b, trace, op);
                    reason = StallReason::MemoryDependency;
                    if (op.kind == InstrKind::Load) {
                        waits = rng.bernoulli(load_dep);
                    } else if (op.kind == InstrKind::Atomic) {
                        waits = rng.bernoulli(0.3);
                        if (!waits)
                            gap += 2;
                    } // stores are fire-and-forget
                    break;
                }
                if (waits) {
                    const size_t n = b.members.size();
                    size_t j = 1;
                    while (j < n && worst[j] == worst[0])
                        ++j;
                    if (j < n) [[unlikely]] {
                        b.now = now;
                        b.readyHead = ready_head;
                        b.inCycle = true;
                        b.ports = ports;
                        b.rng = rng;
                        split(b, wi, gap, fetch_delay, reason);
                        continue;
                    }
                    gap += worst[0];
                }
                finish(b, wi, now, gap, fetch_delay, reason);
            }

            // Warps that were eligible but lost arbitration (or their
            // execution port) this cycle stay eligible for the next
            // one. The sampled attribution is capped per cycle,
            // matching the per-scheduler view nvprof reports (each
            // scheduler sees at most a few eligible-but-unissued
            // warps).
            double left = static_cast<double>(
                b.kept.size() + (b.ready.size() - ready_head));
            if (left > 0) {
                b.shared.stallCycles[static_cast<size_t>(
                    StallReason::NotSelected)] +=
                    std::min<double>(left, cfg_.issueWidth);
            }
            if (!b.kept.empty()) {
                // Re-queue port-blocked warps ahead of the unscanned
                // ones.
                rebuilt.clear();
                rebuilt.reserve(b.kept.size() + b.ready.size() - ready_head);
                rebuilt.insert(rebuilt.end(), b.kept.begin(), b.kept.end());
                rebuilt.insert(rebuilt.end(),
                               b.ready.begin() + static_cast<long>(ready_head),
                               b.ready.end());
                b.ready.swap(rebuilt);
                ready_head = 0;
            } else if (ready_head > 1024) {
                // Compact the FIFO occasionally.
                b.ready.erase(b.ready.begin(),
                              b.ready.begin() + static_cast<long>(ready_head));
                ready_head = 0;
            }
            ++now;
            in_cycle = false;
        }
        for (int m : b.members) {
            results[m] += b.shared;
            results[m].cycles = static_cast<double>(now) * extrapolate;
        }
        if (!ended) {
            rng_ = rng;
            ended = true;
        } else {
            GNN_ASSERT(rng.state() == rng_.state(),
                       "lockstep parts of a wave drew the RNG unequally");
        }
    }

    for (WaveResult &res : results) {
        for (auto &s : res.stallCycles)
            s *= extrapolate;
        res.loads *= extrapolate;
        res.divergentLoads *= extrapolate;
        res.l1Accesses *= extrapolate;
        res.l1Hits *= extrapolate;
        res.l2Accesses *= extrapolate;
        res.l2Hits *= extrapolate;
        res.dramBytes *= extrapolate;
    }
    return results;
}

} // namespace gnnmark
