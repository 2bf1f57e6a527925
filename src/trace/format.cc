#include "trace/format.hh"

namespace gnnmark {
namespace trace {

namespace {

/** Highest valid InstrKind byte (the enum has no sentinel). */
constexpr uint8_t kMaxInstrKind =
    static_cast<uint8_t>(InstrKind::Barrier);

bool
isMemKind(InstrKind kind)
{
    return kind == InstrKind::Load || kind == InstrKind::Store ||
           kind == InstrKind::Atomic;
}

/** Event tags in the payload stream. */
constexpr uint8_t kTagLaunch = 'K';
constexpr uint8_t kTagTransfer = 'T';
constexpr uint8_t kTagMarker = 'M';

} // namespace

void
StringTableWriter::put(ByteBuilder &out, const std::string &s)
{
    auto it = ids_.find(s);
    if (it != ids_.end()) {
        out.varint(it->second);
        return;
    }
    const uint64_t id = ids_.size();
    ids_.emplace(s, id);
    out.varint(id);
    out.str(s);
}

std::string
StringTableReader::get(ByteCursor &in)
{
    const uint64_t id = in.varint();
    if (id < entries_.size())
        return entries_[id];
    if (id != entries_.size())
        in.fail(IoError::Kind::Corrupt, "string table id out of order");
    entries_.push_back(in.str());
    return entries_.back();
}

void
encodeGpuConfig(ByteBuilder &out, const GpuConfig &c)
{
    out.svarint(c.numSms);
    out.svarint(c.warpSize);
    out.svarint(c.maxWarpsPerSm);
    out.svarint(c.maxBlocksPerSm);
    out.svarint(c.issueWidth);
    out.svarint(c.fp32PortsPerCycle);
    out.svarint(c.int32PortsPerCycle);
    out.svarint(c.lsuPortsPerCycle);
    out.svarint(c.sfuPortsPerCycle);
    out.f64(c.clockGhz);
    out.varint(c.l1SizeBytes);
    out.svarint(c.l1Assoc);
    out.varint(c.l2SizeBytes);
    out.svarint(c.l2Assoc);
    out.svarint(c.cacheLineBytes);
    out.varint(c.l0ISizeBytes);
    out.svarint(c.l0IAssoc);
    out.svarint(c.instrBytes);
    out.svarint(c.ifetchMissCycles);
    out.varint(c.l1ISizeBytes);
    out.svarint(c.ifetchColdCycles);
    out.svarint(c.aluLatency);
    out.svarint(c.sfuLatency);
    out.svarint(c.sharedLatency);
    out.svarint(c.l1HitLatency);
    out.svarint(c.l2HitLatency);
    out.svarint(c.dramLatency);
    out.svarint(c.atomicLatency);
    out.svarint(c.barrierCycles);
    out.svarint(c.divergenceReplayCycles);
    out.f64(c.dramBandwidth);
    out.f64(c.pcieBandwidth);
    out.f64(c.pcieLatencySec);
    out.f64(c.launchOverheadSec);
    out.f64(c.kernelBaseTimeSec);
    out.svarint(c.elemBytes);
    out.svarint(c.detailSampleLimit);
    out.svarint(c.maxTraceInstrs);
    out.svarint(c.simSmCount);
    out.u8(c.l1BypassIrregular ? 1 : 0);
    out.u8(c.h2dCompression ? 1 : 0);
    out.f64(c.aluIlp);
    out.f64(c.loadDepFraction);
}

GpuConfig
decodeGpuConfig(ByteCursor &in)
{
    GpuConfig c;
    c.numSms = static_cast<int>(in.svarint());
    c.warpSize = static_cast<int>(in.svarint());
    c.maxWarpsPerSm = static_cast<int>(in.svarint());
    c.maxBlocksPerSm = static_cast<int>(in.svarint());
    c.issueWidth = static_cast<int>(in.svarint());
    c.fp32PortsPerCycle = static_cast<int>(in.svarint());
    c.int32PortsPerCycle = static_cast<int>(in.svarint());
    c.lsuPortsPerCycle = static_cast<int>(in.svarint());
    c.sfuPortsPerCycle = static_cast<int>(in.svarint());
    c.clockGhz = in.f64();
    c.l1SizeBytes = in.varint();
    c.l1Assoc = static_cast<int>(in.svarint());
    c.l2SizeBytes = in.varint();
    c.l2Assoc = static_cast<int>(in.svarint());
    c.cacheLineBytes = static_cast<int>(in.svarint());
    c.l0ISizeBytes = in.varint();
    c.l0IAssoc = static_cast<int>(in.svarint());
    c.instrBytes = static_cast<int>(in.svarint());
    c.ifetchMissCycles = static_cast<int>(in.svarint());
    c.l1ISizeBytes = in.varint();
    c.ifetchColdCycles = static_cast<int>(in.svarint());
    c.aluLatency = static_cast<int>(in.svarint());
    c.sfuLatency = static_cast<int>(in.svarint());
    c.sharedLatency = static_cast<int>(in.svarint());
    c.l1HitLatency = static_cast<int>(in.svarint());
    c.l2HitLatency = static_cast<int>(in.svarint());
    c.dramLatency = static_cast<int>(in.svarint());
    c.atomicLatency = static_cast<int>(in.svarint());
    c.barrierCycles = static_cast<int>(in.svarint());
    c.divergenceReplayCycles = static_cast<int>(in.svarint());
    c.dramBandwidth = in.f64();
    c.pcieBandwidth = in.f64();
    c.pcieLatencySec = in.f64();
    c.launchOverheadSec = in.f64();
    c.kernelBaseTimeSec = in.f64();
    c.elemBytes = static_cast<int>(in.svarint());
    c.detailSampleLimit = static_cast<int>(in.svarint());
    c.maxTraceInstrs = static_cast<int>(in.svarint());
    c.simSmCount = static_cast<int>(in.svarint());
    c.l1BypassIrregular = in.u8() != 0;
    c.h2dCompression = in.u8() != 0;
    c.aluIlp = in.f64();
    c.loadDepFraction = in.f64();
    return c;
}

void
encodeRanges(ByteBuilder &out,
             const std::vector<std::pair<uint64_t, uint64_t>> &ranges)
{
    out.varint(ranges.size());
    uint64_t prev = 0;
    for (const auto &[addr, bytes] : ranges) {
        out.svarint(static_cast<int64_t>(addr - prev));
        out.varint(bytes);
        prev = addr + bytes;
    }
}

std::vector<std::pair<uint64_t, uint64_t>>
decodeRanges(ByteCursor &in)
{
    const uint64_t n = in.varint();
    if (n > (1u << 24))
        in.fail(IoError::Kind::Corrupt, "implausible range count");
    std::vector<std::pair<uint64_t, uint64_t>> ranges;
    ranges.reserve(static_cast<size_t>(n));
    uint64_t prev = 0;
    for (uint64_t i = 0; i < n; ++i) {
        const uint64_t addr =
            prev + static_cast<uint64_t>(in.svarint());
        const uint64_t bytes = in.varint();
        ranges.emplace_back(addr, bytes);
        prev = addr + bytes;
    }
    return ranges;
}

void
encodeWarpTrace(ByteBuilder &out, const WarpTrace &trace)
{
    const TraceCounts &c = trace.counts;
    out.varint(c.fp32);
    out.varint(c.int32);
    out.varint(c.misc);
    out.varint(c.loads);
    out.varint(c.stores);
    out.f64(c.flops);
    out.f64(c.intOps);
    out.varint(trace.recordedInstrs);

    // Opcode stream: memory ops carry line counts inline; everything
    // else collapses runs of one kind into a single (kind, run) pair.
    out.varint(trace.ops.size());
    for (size_t i = 0; i < trace.ops.size();) {
        const TraceOp &op = trace.ops[i];
        out.u8(static_cast<uint8_t>(op.kind));
        if (isMemKind(op.kind)) {
            out.varint(op.lineCount);
            out.varint(op.minLines);
            ++i;
        } else {
            size_t run = 1;
            while (i + run < trace.ops.size() &&
                   trace.ops[i + run].kind == op.kind) {
                ++run;
            }
            out.varint(run);
            i += run;
        }
    }

    // Line pool: zigzag deltas with stride run-length compression.
    out.varint(trace.lines.size());
    uint64_t prev = 0;
    for (size_t i = 0; i < trace.lines.size();) {
        const int64_t delta =
            static_cast<int64_t>(trace.lines[i] - prev);
        size_t run = 1;
        while (i + run < trace.lines.size() &&
               static_cast<int64_t>(trace.lines[i + run] -
                                    trace.lines[i + run - 1]) == delta) {
            ++run;
        }
        out.svarint(delta);
        out.varint(run);
        prev = trace.lines[i + run - 1];
        i += run;
    }
}

WarpTrace
decodeWarpTrace(ByteCursor &in)
{
    WarpTrace trace;
    TraceCounts &c = trace.counts;
    c.fp32 = in.varint();
    c.int32 = in.varint();
    c.misc = in.varint();
    c.loads = in.varint();
    c.stores = in.varint();
    c.flops = in.f64();
    c.intOps = in.f64();
    trace.recordedInstrs = in.varint();

    const uint64_t op_count = in.varint();
    if (op_count > (1u << 26))
        in.fail(IoError::Kind::Corrupt, "implausible op count");
    trace.ops.reserve(static_cast<size_t>(op_count));
    uint32_t line_begin = 0;
    while (trace.ops.size() < op_count) {
        const uint8_t kind_byte = in.u8();
        if (kind_byte > kMaxInstrKind)
            in.fail(IoError::Kind::Corrupt, "invalid instruction kind");
        const InstrKind kind = static_cast<InstrKind>(kind_byte);
        if (isMemKind(kind)) {
            const uint64_t line_count = in.varint();
            const uint64_t min_lines = in.varint();
            if (line_count > UINT16_MAX || min_lines > UINT16_MAX)
                in.fail(IoError::Kind::Corrupt, "line count overflow");
            TraceOp op;
            op.kind = kind;
            op.lineCount = static_cast<uint16_t>(line_count);
            op.minLines = static_cast<uint16_t>(min_lines);
            op.lineBegin = line_begin;
            line_begin += op.lineCount;
            trace.ops.push_back(op);
        } else {
            const uint64_t run = in.varint();
            if (run == 0 || run > op_count - trace.ops.size())
                in.fail(IoError::Kind::Corrupt, "invalid opcode run");
            for (uint64_t r = 0; r < run; ++r)
                trace.ops.push_back(TraceOp{kind, 0, 0, 0});
        }
    }

    const uint64_t line_count = in.varint();
    if (line_count != line_begin) {
        in.fail(IoError::Kind::Corrupt,
                "line pool size disagrees with the opcode stream");
    }
    trace.lines.reserve(static_cast<size_t>(line_count));
    uint64_t prev = 0;
    while (trace.lines.size() < line_count) {
        const int64_t delta = in.svarint();
        const uint64_t run = in.varint();
        if (run == 0 || run > line_count - trace.lines.size())
            in.fail(IoError::Kind::Corrupt, "invalid stride run");
        for (uint64_t r = 0; r < run; ++r) {
            prev += static_cast<uint64_t>(delta);
            trace.lines.push_back(prev);
        }
    }
    return trace;
}

void
encodeHeader(ByteBuilder &out, const TraceHeader &h)
{
    out.str(h.workload);
    out.u64(h.seed);
    out.f64(h.scale);
    out.svarint(h.iterations);
    out.svarint(h.warmupIterations);
    out.u8(h.inferenceOnly ? 1 : 0);
    out.svarint(h.iterationsPerEpoch);
    out.f64(h.parameterBytes);
    out.varint(h.losses.size());
    for (float loss : h.losses)
        out.f32(loss);
    encodeGpuConfig(out, h.config);
}

TraceHeader
decodeHeader(ByteCursor &in)
{
    TraceHeader h;
    h.workload = in.str();
    h.seed = in.u64();
    h.scale = in.f64();
    h.iterations = static_cast<int32_t>(in.svarint());
    h.warmupIterations = static_cast<int32_t>(in.svarint());
    h.inferenceOnly = in.u8() != 0;
    h.iterationsPerEpoch = in.svarint();
    h.parameterBytes = in.f64();
    const uint64_t losses = in.varint();
    if (losses > (1u << 24))
        in.fail(IoError::Kind::Corrupt, "implausible loss count");
    h.losses.reserve(static_cast<size_t>(losses));
    for (uint64_t i = 0; i < losses; ++i)
        h.losses.push_back(in.f32());
    h.config = decodeGpuConfig(in);
    const std::string problem = validateConfig(h.config);
    if (!problem.empty()) {
        in.fail(IoError::Kind::Corrupt,
                "recorded GPU config cannot be simulated: " + problem);
    }
    return h;
}

void
encodeEvent(ByteBuilder &out, StringTableWriter &strings,
            const TraceEvent &event)
{
    if (const auto *launch = std::get_if<LaunchEvent>(&event)) {
        out.u8(kTagLaunch);
        strings.put(out, launch->name);
        out.u8(static_cast<uint8_t>(launch->opClass));
        out.varint(static_cast<uint64_t>(launch->blocks));
        out.varint(static_cast<uint64_t>(launch->warpsPerBlock));
        out.varint(static_cast<uint64_t>(launch->codeBytes));
        out.f64(launch->aluIlp);
        out.f64(launch->loadDepFraction);
        out.u8(launch->irregular ? 1 : 0);
        encodeRanges(out, launch->outputRanges);
        encodeRanges(out, launch->inputRanges);
        out.varint(launch->warps.size());
        int64_t prev_id = 0;
        for (const TracedWarp &warp : launch->warps) {
            out.svarint(warp.warpId - prev_id);
            prev_id = warp.warpId;
            encodeWarpTrace(out, warp.trace);
        }
        return;
    }
    if (const auto *transfer = std::get_if<TransferEvent>(&event)) {
        out.u8(kTagTransfer);
        strings.put(out, transfer->tag);
        out.varint(transfer->addr);
        out.varint(transfer->bytes);
        out.f64(transfer->zeroFraction);
        return;
    }
    out.u8(kTagMarker);
    out.u8(static_cast<uint8_t>(std::get<TraceMarker>(event)));
}

TraceEvent
decodeEvent(ByteCursor &in, StringTableReader &strings)
{
    const uint8_t tag = in.u8();
    if (tag == kTagLaunch) {
        LaunchEvent launch;
        launch.name = strings.get(in);
        const uint8_t op_class = in.u8();
        if (op_class >= kNumOpClasses)
            in.fail(IoError::Kind::Corrupt, "invalid op class");
        launch.opClass = static_cast<OpClass>(op_class);
        launch.blocks = static_cast<int64_t>(in.varint());
        launch.warpsPerBlock = static_cast<int>(in.varint());
        launch.codeBytes = static_cast<int>(in.varint());
        launch.aluIlp = in.f64();
        launch.loadDepFraction = in.f64();
        launch.irregular = in.u8() != 0;
        launch.outputRanges = decodeRanges(in);
        launch.inputRanges = decodeRanges(in);
        if (launch.blocks < 1 || launch.warpsPerBlock < 1)
            in.fail(IoError::Kind::Corrupt, "invalid launch geometry");
        const uint64_t warps = in.varint();
        if (warps > (1u << 24))
            in.fail(IoError::Kind::Corrupt, "implausible warp count");
        launch.warps.reserve(static_cast<size_t>(warps));
        int64_t prev_id = 0;
        for (uint64_t i = 0; i < warps; ++i) {
            TracedWarp warp;
            warp.warpId = prev_id + in.svarint();
            prev_id = warp.warpId;
            warp.trace = decodeWarpTrace(in);
            launch.warps.push_back(std::move(warp));
        }
        return launch;
    }
    if (tag == kTagTransfer) {
        TransferEvent transfer;
        transfer.tag = strings.get(in);
        transfer.addr = in.varint();
        transfer.bytes = in.varint();
        transfer.zeroFraction = in.f64();
        return transfer;
    }
    if (tag == kTagMarker) {
        const uint8_t marker = in.u8();
        if (marker >= static_cast<uint8_t>(TraceMarker::NumMarkers))
            in.fail(IoError::Kind::Corrupt, "invalid marker");
        return static_cast<TraceMarker>(marker);
    }
    in.fail(IoError::Kind::Corrupt, "unknown event tag");
}

} // namespace trace
} // namespace gnnmark
