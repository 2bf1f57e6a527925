/**
 * @file
 * The versioned binary trace-file format (shared by writer and reader).
 *
 * File layout (all integers little-endian):
 *
 *   [8B magic "GNMKTRCE"] [u32 version]
 *   [u64 header size] [header bytes]
 *   [u64 payload size] [payload bytes]
 *   [u64 FNV-1a checksum of header||payload]
 *
 * The header encodes the TraceHeader (run metadata + the recording
 * GpuConfig, field by field in declaration order). The payload is a
 * varint event count followed by tagged events:
 *
 *   'K' launch:   kernel name via a shared string table, launch
 *                 geometry, footprint ranges as delta-encoded spans,
 *                 and the detail-simulated warps. Warp instruction
 *                 streams are run-length encoded per opcode kind
 *                 (memory ops carry their line counts inline) and the
 *                 cache-line pool is stored as zigzag-delta varints
 *                 with stride run-length compression — consecutive
 *                 equal strides (the coalesced common case) collapse
 *                 to one (delta, run) pair.
 *   'T' transfer: tag via the string table, address, bytes, sparsity.
 *   'M' marker:   one TraceMarker byte.
 *
 * Versioning policy: `kTraceFormatVersion` is bumped on ANY layout
 * change (including GpuConfig field additions, which widen the header
 * codec); readers reject other versions with IoError::Kind::BadVersion
 * rather than guessing. Doubles are stored bit-exactly so a replayed
 * run is bitwise-reproducible.
 */

#ifndef GNNMARK_TRACE_FORMAT_HH
#define GNNMARK_TRACE_FORMAT_HH

#include <cstddef>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "base/io.hh"
#include "trace/trace.hh"

namespace gnnmark {
namespace trace {

/** File magic. */
constexpr char kTraceMagic[8] = {'G', 'N', 'M', 'K', 'T', 'R', 'C', 'E'};

/**
 * On-disk layout version; see the versioning policy above.
 * v2: BackwardBegin/BackwardEnd timeline markers (marker byte range
 * widened), recorded for the DDP overlap model.
 */
constexpr uint32_t kTraceFormatVersion = 2;

/**
 * Interning string table: repeated kernel names / transfer tags are
 * written once and referenced by index afterwards. The codec is
 * self-describing — an id equal to the current table size introduces
 * a new entry whose bytes follow inline.
 */
class StringTableWriter
{
  public:
    void put(ByteBuilder &out, const std::string &s);

  private:
    std::unordered_map<std::string, uint64_t> ids_;
};

class StringTableReader
{
  public:
    std::string get(ByteCursor &in);

  private:
    std::vector<std::string> entries_;
};

/** @{ Field-by-field GpuConfig codec (header section). */
void encodeGpuConfig(ByteBuilder &out, const GpuConfig &config);
GpuConfig decodeGpuConfig(ByteCursor &in);
/** @} */

/** @{ Footprint span lists, delta-encoded against the previous span. */
void encodeRanges(ByteBuilder &out,
                  const std::vector<std::pair<uint64_t, uint64_t>> &ranges);
std::vector<std::pair<uint64_t, uint64_t>> decodeRanges(ByteCursor &in);
/** @} */

/** @{ One warp's recorded trace (ops RLE + line pool stride RLE). The
 *  decoder rejects a warp of more than `max_ops` ops, the recording
 *  config's maxTraceInstrs: WarpTraceSink never records more. */
void encodeWarpTrace(ByteBuilder &out, const WarpTrace &trace);
WarpTrace decodeWarpTrace(ByteCursor &in, uint64_t max_ops);
/** @} */

/** @{ Header and event codecs used by writer.cc / reader.cc. */
void encodeHeader(ByteBuilder &out, const TraceHeader &header);
TraceHeader decodeHeader(ByteCursor &in);
/** The fewest bytes one encoded event takes: a marker is a tag and
 *  one byte. */
constexpr size_t kMinEventBytes = 2;
void encodeEvent(ByteBuilder &out, StringTableWriter &strings,
                 const TraceEvent &event);
TraceEvent decodeEvent(ByteCursor &in, StringTableReader &strings,
                       uint64_t max_ops);
/** @} */

} // namespace trace
} // namespace gnnmark

#endif // GNNMARK_TRACE_FORMAT_HH
