#include "base/io.hh"

#include <cstdio>
#include <cstring>

namespace gnnmark {

IoError::IoError(Kind kind, const std::string &message)
    : std::runtime_error(message), kind_(kind)
{
}

uint64_t
fnv1a(const uint8_t *data, size_t n)
{
    uint64_t h = 0xcbf29ce484222325ULL;
    for (size_t i = 0; i < n; ++i) {
        h ^= data[i];
        h *= 0x100000001b3ULL;
    }
    return h;
}

std::vector<uint8_t>
readFileBytes(const std::string &path)
{
    std::FILE *f = std::fopen(path.c_str(), "rb");
    if (f == nullptr) {
        throw IoError(IoError::Kind::OpenFailed,
                      "cannot open '" + path + "' for reading");
    }
    std::vector<uint8_t> out;
    uint8_t buf[1 << 16];
    size_t n;
    while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0)
        out.insert(out.end(), buf, buf + n);
    const bool err = std::ferror(f) != 0;
    std::fclose(f);
    if (err) {
        throw IoError(IoError::Kind::ShortRead,
                      "read error on '" + path + "'");
    }
    return out;
}

void
writeFileBytes(const std::string &path, const std::vector<uint8_t> &bytes)
{
    std::FILE *f = std::fopen(path.c_str(), "wb");
    if (f == nullptr) {
        throw IoError(IoError::Kind::OpenFailed,
                      "cannot open '" + path + "' for writing");
    }
    bool ok = bytes.empty() ||
              std::fwrite(bytes.data(), 1, bytes.size(), f) == bytes.size();
    ok = std::fclose(f) == 0 && ok;
    if (!ok) {
        throw IoError(IoError::Kind::ShortWrite,
                      "short write to '" + path + "'");
    }
}

ByteCursor::ByteCursor(const uint8_t *data, size_t size,
                       std::string context)
    : data_(data), size_(size), ctx_(std::move(context))
{
}

void
ByteCursor::fail(IoError::Kind kind, const std::string &detail) const
{
    throw IoError(kind, ctx_ + ": " + detail + " (at offset " +
                            std::to_string(pos_) + ")");
}

uint64_t
ByteCursor::count(size_t min_item_bytes, const char *what)
{
    const uint64_t n = varint();
    if (n > remaining() / min_item_bytes) {
        fail(IoError::Kind::Corrupt,
             std::string("more ") + what +
                 " than the rest of the image could encode");
    }
    return n;
}

void
ByteCursor::bytes(void *out, size_t n)
{
    if (n > remaining())
        fail(IoError::Kind::ShortRead, "image truncated");
    std::memcpy(out, data_ + pos_, n);
    pos_ += n;
}

uint8_t
ByteCursor::u8()
{
    uint8_t v;
    bytes(&v, 1);
    return v;
}

uint32_t
ByteCursor::u32()
{
    uint8_t b[4];
    bytes(b, sizeof(b));
    uint32_t v = 0;
    for (int i = 3; i >= 0; --i)
        v = (v << 8) | b[i];
    return v;
}

uint64_t
ByteCursor::u64()
{
    uint8_t b[8];
    bytes(b, sizeof(b));
    uint64_t v = 0;
    for (int i = 7; i >= 0; --i)
        v = (v << 8) | b[i];
    return v;
}

uint64_t
ByteCursor::varint()
{
    uint64_t v = 0;
    int shift = 0;
    for (int i = 0; i < 10; ++i) {
        const uint8_t byte = u8();
        v |= static_cast<uint64_t>(byte & 0x7f) << shift;
        if ((byte & 0x80) == 0)
            return v;
        shift += 7;
    }
    fail(IoError::Kind::Corrupt, "varint longer than 10 bytes");
}

int64_t
ByteCursor::svarint()
{
    const uint64_t z = varint();
    return static_cast<int64_t>(z >> 1) ^ -static_cast<int64_t>(z & 1);
}

double
ByteCursor::f64()
{
    const uint64_t bits = u64();
    double v;
    std::memcpy(&v, &bits, sizeof(v));
    return v;
}

float
ByteCursor::f32()
{
    const uint32_t bits = u32();
    float v;
    std::memcpy(&v, &bits, sizeof(v));
    return v;
}

std::string
ByteCursor::str()
{
    const uint64_t n = varint();
    if (n > remaining())
        fail(IoError::Kind::ShortRead, "string overruns the image");
    std::string s(reinterpret_cast<const char *>(data_ + pos_),
                  static_cast<size_t>(n));
    pos_ += static_cast<size_t>(n);
    return s;
}

void
ByteBuilder::bytes(const void *p, size_t n)
{
    const uint8_t *b = static_cast<const uint8_t *>(p);
    out_.insert(out_.end(), b, b + n);
}

void
ByteBuilder::u8(uint8_t v)
{
    out_.push_back(v);
}

void
ByteBuilder::u32(uint32_t v)
{
    for (int i = 0; i < 4; ++i)
        out_.push_back(static_cast<uint8_t>(v >> (8 * i)));
}

void
ByteBuilder::u64(uint64_t v)
{
    for (int i = 0; i < 8; ++i)
        out_.push_back(static_cast<uint8_t>(v >> (8 * i)));
}

void
ByteBuilder::varint(uint64_t v)
{
    while (v >= 0x80) {
        out_.push_back(static_cast<uint8_t>(v) | 0x80);
        v >>= 7;
    }
    out_.push_back(static_cast<uint8_t>(v));
}

void
ByteBuilder::svarint(int64_t v)
{
    varint((static_cast<uint64_t>(v) << 1) ^
           static_cast<uint64_t>(v >> 63));
}

void
ByteBuilder::f64(double v)
{
    uint64_t bits;
    std::memcpy(&bits, &v, sizeof(bits));
    u64(bits);
}

void
ByteBuilder::f32(float v)
{
    uint32_t bits;
    std::memcpy(&bits, &v, sizeof(bits));
    u32(bits);
}

void
ByteBuilder::str(const std::string &s)
{
    varint(s.size());
    bytes(s.data(), s.size());
}

} // namespace gnnmark
