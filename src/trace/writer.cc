#include "trace/writer.hh"

#include "base/io.hh"
#include "trace/format.hh"

namespace gnnmark {
namespace trace {

void
TraceRecorder::onLaunch(const KernelDesc &desc,
                        std::vector<std::pair<int64_t, WarpTrace>> traced)
{
    LaunchEvent launch;
    static_cast<KernelShape &>(launch) = desc;
    launch.warps.reserve(traced.size());
    for (auto &[warp_id, warp_trace] : traced)
        launch.warps.push_back(
            TracedWarp{warp_id, std::move(warp_trace)});
    events_.emplace_back(std::move(launch));
}

void
TraceRecorder::onTransfer(uint64_t addr, uint64_t bytes,
                          double zero_fraction, const std::string &tag)
{
    events_.emplace_back(TransferEvent{tag, addr, bytes, zero_fraction});
}

void
TraceRecorder::onMarker(TraceMarker marker)
{
    events_.emplace_back(marker);
}

RecordedTrace
TraceRecorder::finish(TraceHeader header)
{
    RecordedTrace trace;
    trace.header = std::move(header);
    trace.events = std::move(events_);
    events_.clear();
    return trace;
}

std::vector<uint8_t>
serializeTrace(const RecordedTrace &trace)
{
    ByteBuilder header;
    encodeHeader(header, trace.header);

    ByteBuilder payload;
    StringTableWriter strings;
    payload.varint(trace.events.size());
    for (const TraceEvent &event : trace.events)
        encodeEvent(payload, strings, event);

    ByteBuilder file;
    file.bytes(kTraceMagic, sizeof(kTraceMagic));
    file.u32(kTraceFormatVersion);
    file.u64(header.size());
    file.bytes(header.buffer().data(), header.size());
    file.u64(payload.size());
    file.bytes(payload.buffer().data(), payload.size());

    // Checksum covers header||payload (the bytes between the size
    // words), so any bit flip in either section is caught.
    ByteBuilder summed;
    summed.bytes(header.buffer().data(), header.size());
    summed.bytes(payload.buffer().data(), payload.size());
    file.u64(fnv1a(summed.buffer().data(), summed.size()));
    return std::move(file.buffer());
}

void
writeTraceFile(const std::string &path, const RecordedTrace &trace)
{
    writeFileBytes(path, serializeTrace(trace));
}

} // namespace trace
} // namespace gnnmark
