#include "trace/reader.hh"

#include <cstring>

#include "base/io.hh"
#include "trace/format.hh"

namespace gnnmark {
namespace trace {

RecordedTrace
parseTrace(const std::vector<uint8_t> &bytes, const std::string &context)
{
    ByteCursor file(bytes.data(), bytes.size(), context);

    char magic[sizeof(kTraceMagic)];
    file.bytes(magic, sizeof(magic));
    if (std::memcmp(magic, kTraceMagic, sizeof(magic)) != 0) {
        throw IoError(IoError::Kind::BadMagic,
                      context + ": not a GNNMark kernel trace");
    }
    const uint32_t version = file.u32();
    if (version != kTraceFormatVersion) {
        throw IoError(IoError::Kind::BadVersion,
                      context + ": trace format version " +
                          std::to_string(version) +
                          ", this build reads version " +
                          std::to_string(kTraceFormatVersion));
    }

    const uint64_t header_size = file.u64();
    if (header_size > file.remaining())
        file.fail(IoError::Kind::ShortRead, "header overruns the file");
    const size_t header_at = file.pos();
    std::vector<uint8_t> skip(static_cast<size_t>(header_size));
    file.bytes(skip.data(), skip.size());

    const uint64_t payload_size = file.u64();
    if (payload_size > file.remaining())
        file.fail(IoError::Kind::ShortRead, "payload overruns the file");
    const size_t payload_at = file.pos();
    skip.resize(static_cast<size_t>(payload_size));
    file.bytes(skip.data(), skip.size());

    const uint64_t stored_checksum = file.u64();
    if (!file.exhausted()) {
        throw IoError(IoError::Kind::TrailingBytes,
                      context + ": trailing bytes after the trace image");
    }

    // Verify integrity before decoding anything: header || payload.
    ByteBuilder summed;
    summed.bytes(bytes.data() + header_at,
                 static_cast<size_t>(header_size));
    summed.bytes(bytes.data() + payload_at,
                 static_cast<size_t>(payload_size));
    if (fnv1a(summed.buffer().data(), summed.size()) != stored_checksum) {
        throw IoError(IoError::Kind::Corrupt,
                      context + ": checksum mismatch — the trace is "
                                "corrupt");
    }

    RecordedTrace trace;
    {
        ByteCursor header(bytes.data() + header_at,
                          static_cast<size_t>(header_size),
                          context + " (header)");
        trace.header = decodeHeader(header);
        if (!header.exhausted()) {
            header.fail(IoError::Kind::Corrupt,
                        "unread bytes at the end of the header");
        }
    }
    {
        ByteCursor payload(bytes.data() + payload_at,
                           static_cast<size_t>(payload_size),
                           context + " (payload)");
        StringTableReader strings;
        const uint64_t events = payload.count(kMinEventBytes, "events");
        trace.events.reserve(static_cast<size_t>(events));
        const int max_warps = trace.header.config.maxWarpsPerSm;
        const auto max_ops =
            static_cast<uint64_t>(trace.header.config.maxTraceInstrs);
        for (uint64_t i = 0; i < events; ++i) {
            trace.events.push_back(decodeEvent(payload, strings, max_ops));
            const auto *launch =
                std::get_if<LaunchEvent>(&trace.events.back());
            if (launch != nullptr && launch->warpsPerBlock > max_warps) {
                payload.fail(IoError::Kind::Corrupt,
                             "launch '" + launch->name +
                                 "' has more warps per block than the "
                                 "recorded config's warps per SM");
            }
        }
        if (!payload.exhausted()) {
            payload.fail(IoError::Kind::Corrupt,
                         "unread bytes after the last event");
        }
    }
    return trace;
}

RecordedTrace
readTraceFile(const std::string &path)
{
    return parseTrace(readFileBytes(path), "trace file '" + path + "'");
}

} // namespace trace
} // namespace gnnmark
