#include "sim/warp_trace.hh"

#include <algorithm>
#include <bit>

#include "base/logging.hh"

namespace gnnmark {

WarpTraceSink::WarpTraceSink(WarpTrace &trace, int cap, int line_bytes)
    : trace_(trace), cap_(static_cast<uint64_t>(cap)),
      lineBytes_(line_bytes)
{
    GNN_ASSERT(cap > 0, "trace cap must be positive");
    GNN_ASSERT(line_bytes > 0 && std::has_single_bit(
                   static_cast<uint64_t>(line_bytes)),
               "line size must be a power of two");
    lineShift_ = std::countr_zero(static_cast<uint64_t>(line_bytes));
}

void
WarpTraceSink::recordAlu(InstrKind kind)
{
    if (trace_.recordedInstrs < cap_) {
        trace_.ops.push_back(TraceOp{kind, 0, 0, 0});
        ++trace_.recordedInstrs;
    }
}

void
WarpTraceSink::fp32(int n)
{
    trace_.counts.fp32 += n;
    trace_.counts.flops += 32.0 * n;
    for (int i = 0; i < n && trace_.recordedInstrs < cap_; ++i)
        recordAlu(InstrKind::Fp32);
}

void
WarpTraceSink::fma(int n)
{
    trace_.counts.fp32 += n;
    trace_.counts.flops += 64.0 * n;
    for (int i = 0; i < n && trace_.recordedInstrs < cap_; ++i)
        recordAlu(InstrKind::Fma);
}

void
WarpTraceSink::sfu(int n)
{
    trace_.counts.fp32 += n;
    trace_.counts.flops += 32.0 * n;
    for (int i = 0; i < n && trace_.recordedInstrs < cap_; ++i)
        recordAlu(InstrKind::Sfu);
}

void
WarpTraceSink::int32(int n)
{
    trace_.counts.int32 += n;
    trace_.counts.intOps += 32.0 * n;
    for (int i = 0; i < n && trace_.recordedInstrs < cap_; ++i)
        recordAlu(InstrKind::Int32);
}

void
WarpTraceSink::misc(int n)
{
    trace_.counts.misc += n;
    for (int i = 0; i < n && trace_.recordedInstrs < cap_; ++i)
        recordAlu(InstrKind::Misc);
}

void
WarpTraceSink::recordMem(InstrKind kind, const uint64_t *addrs, int lanes,
                         int bytes_per_lane)
{
    GNN_ASSERT(lanes > 0 && lanes <= 32, "lanes out of range: %d", lanes);

    // Address arithmetic: every global access is preceded by IMAD-style
    // integer work in the compiled kernel (64-bit IMAD pairs plus the
    // predicate computation).
    int32(3);

    bool is_load = kind == InstrKind::Load;
    if (is_load) {
        ++trace_.counts.loads;
    } else {
        ++trace_.counts.stores;
    }

    if (trace_.recordedInstrs >= cap_)
        return;

    // Coalesce lane addresses into distinct line addresses, exactly as
    // the LD/ST unit would. A lane access can straddle two lines when
    // bytes_per_lane > 1 and the address is not line-aligned.
    uint64_t lane_lines[64];
    int n = 0;
    for (int i = 0; i < lanes; ++i) {
        uint64_t first = addrs[i] >> lineShift_;
        uint64_t last = (addrs[i] + bytes_per_lane - 1) >> lineShift_;
        lane_lines[n++] = first;
        if (last != first)
            lane_lines[n++] = last;
    }
    std::sort(lane_lines, lane_lines + n);
    int unique = static_cast<int>(
        std::unique(lane_lines, lane_lines + n) - lane_lines);

    TraceOp op;
    op.kind = kind;
    op.lineCount = static_cast<uint16_t>(unique);
    // A perfectly coalesced, aligned access by these lanes would need
    // this many lines; anything beyond is divergence / misalignment.
    op.minLines = static_cast<uint16_t>(
        (static_cast<uint64_t>(lanes) * bytes_per_lane + lineBytes_ - 1) /
        lineBytes_);
    op.lineBegin = static_cast<uint32_t>(trace_.lines.size());
    for (int i = 0; i < unique; ++i)
        trace_.lines.push_back(lane_lines[i] << lineShift_);
    trace_.ops.push_back(op);
    ++trace_.recordedInstrs;
}

void
WarpTraceSink::loadGlobal(const uint64_t *addrs, int lanes,
                          int bytes_per_lane)
{
    recordMem(InstrKind::Load, addrs, lanes, bytes_per_lane);
}

void
WarpTraceSink::storeGlobal(const uint64_t *addrs, int lanes,
                           int bytes_per_lane)
{
    recordMem(InstrKind::Store, addrs, lanes, bytes_per_lane);
}

void
WarpTraceSink::atomicGlobal(const uint64_t *addrs, int lanes,
                            int bytes_per_lane)
{
    recordMem(InstrKind::Atomic, addrs, lanes, bytes_per_lane);
}

void
WarpTraceSink::loadCoalesced(uint64_t base, int bytes_per_lane, int lanes)
{
    uint64_t addrs[32];
    for (int i = 0; i < lanes; ++i)
        addrs[i] = base + static_cast<uint64_t>(i) * bytes_per_lane;
    recordMem(InstrKind::Load, addrs, lanes, bytes_per_lane);
}

void
WarpTraceSink::storeCoalesced(uint64_t base, int bytes_per_lane, int lanes)
{
    uint64_t addrs[32];
    for (int i = 0; i < lanes; ++i)
        addrs[i] = base + static_cast<uint64_t>(i) * bytes_per_lane;
    recordMem(InstrKind::Store, addrs, lanes, bytes_per_lane);
}

void
WarpTraceSink::sharedLoad(int n)
{
    trace_.counts.misc += n;
    for (int i = 0; i < n && trace_.recordedInstrs < cap_; ++i)
        recordAlu(InstrKind::SharedLoad);
}

void
WarpTraceSink::sharedStore(int n)
{
    trace_.counts.misc += n;
    for (int i = 0; i < n && trace_.recordedInstrs < cap_; ++i)
        recordAlu(InstrKind::SharedStore);
}

void
WarpTraceSink::barrier()
{
    trace_.counts.misc += 1;
    if (trace_.recordedInstrs < cap_)
        recordAlu(InstrKind::Barrier);
}

void
WarpTraceSink::scaleRemainder(double factor)
{
    GNN_ASSERT(factor >= 1.0, "scaleRemainder factor must be >= 1");
    TraceCounts &c = trace_.counts;
    c.fp32 = static_cast<uint64_t>(c.fp32 * factor);
    c.int32 = static_cast<uint64_t>(c.int32 * factor);
    c.misc = static_cast<uint64_t>(c.misc * factor);
    c.loads = static_cast<uint64_t>(c.loads * factor);
    c.stores = static_cast<uint64_t>(c.stores * factor);
    c.flops *= factor;
    c.intOps *= factor;
}

} // namespace gnnmark
