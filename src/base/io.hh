/**
 * @file
 * Typed file-I/O error handling and bounds-checked binary codecs,
 * shared by every on-disk format in the suite (checkpoints, kernel
 * traces).
 *
 * Readers of external files must never assert on malformed input: a
 * truncated or corrupt file is a user-environment problem, not a bug
 * in this library, so it surfaces as an IoError the caller can catch
 * and report. ByteCursor/ByteBuilder give both formats one audited
 * implementation of the fixed-width, varint and zigzag primitives.
 */

#ifndef GNNMARK_BASE_IO_HH
#define GNNMARK_BASE_IO_HH

#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

namespace gnnmark {

/** A failed file read/write/validate, with a machine-checkable kind. */
class IoError : public std::runtime_error
{
  public:
    enum class Kind
    {
        OpenFailed,    ///< cannot open the file at all
        ShortRead,     ///< file ends before the format says it should
        ShortWrite,    ///< write or close failed mid-stream
        BadMagic,      ///< not a file of the expected format
        BadVersion,    ///< right format, unreadable layout version
        Corrupt,       ///< checksum mismatch or impossible field value
        TrailingBytes, ///< well-formed image followed by garbage
    };

    IoError(Kind kind, const std::string &message);

    Kind kind() const { return kind_; }

  private:
    Kind kind_;
};

/** FNV-1a over a byte span — the integrity check both formats use. */
uint64_t fnv1a(const uint8_t *data, size_t n);

/** Read a whole file; throws IoError(OpenFailed/ShortRead). */
std::vector<uint8_t> readFileBytes(const std::string &path);

/** Write a whole file; throws IoError(OpenFailed/ShortWrite). */
void writeFileBytes(const std::string &path,
                    const std::vector<uint8_t> &bytes);

/**
 * Bounds-checked cursor over an in-memory byte image. Every take
 * method throws IoError(ShortRead) when the image ends early and
 * IoError(Corrupt) on impossible encodings (varint overflow), tagging
 * the message with the context string ("checkpoint file 'x'").
 * Multi-byte integers are little-endian regardless of host order.
 */
class ByteCursor
{
  public:
    ByteCursor(const uint8_t *data, size_t size, std::string context);

    size_t pos() const { return pos_; }
    size_t remaining() const { return size_ - pos_; }
    bool exhausted() const { return pos_ == size_; }

    uint8_t u8();
    uint32_t u32();
    uint64_t u64();
    /** LEB128 varint (<= 10 bytes). */
    uint64_t varint();
    /** Zigzag-decoded signed varint. */
    int64_t svarint();
    /** Bit-exact doubles/floats (raw IEEE-754 little-endian). */
    double f64();
    float f32();
    /** Length-prefixed (varint) string. */
    std::string str();
    void bytes(void *out, size_t n);
    /**
     * Varint length of a sequence whose items take at least
     * `min_item_bytes` each. IoError(Corrupt) when the rest of the
     * image could not hold that many, so the count is safe to reserve.
     */
    uint64_t count(size_t min_item_bytes, const char *what);

    [[noreturn]] void fail(IoError::Kind kind,
                           const std::string &detail) const;

  private:
    const uint8_t *data_;
    size_t size_;
    size_t pos_ = 0;
    std::string ctx_;
};

/** Append-only little-endian builder, the writer-side mirror. */
class ByteBuilder
{
  public:
    std::vector<uint8_t> &buffer() { return out_; }
    const std::vector<uint8_t> &buffer() const { return out_; }
    size_t size() const { return out_.size(); }

    void u8(uint8_t v);
    void u32(uint32_t v);
    void u64(uint64_t v);
    void varint(uint64_t v);
    void svarint(int64_t v);
    void f64(double v);
    void f32(float v);
    /** Length-prefixed (varint) string. */
    void str(const std::string &s);
    void bytes(const void *p, size_t n);

  private:
    std::vector<uint8_t> out_;
};

} // namespace gnnmark

#endif // GNNMARK_BASE_IO_HH
