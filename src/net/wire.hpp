/**
 * @file
 * Endian-stable byte codec shared by every on-the-wire and on-disk
 * serialization in the tree (frame payloads, sweep-cache entries,
 * blob-cache headers).
 *
 * Every multi-byte field is little-endian on every host, so the bytes
 * a writer produces are identical everywhere, and a content key or
 * cached blob written on one machine validates on another. This is
 * the portability contract the distributed sweep fabric
 * (docs/distributed.md) relies on for cross-node cache sharing. Each
 * field moves as one memcpy of its word, passed through toLittle(),
 * which is the identity on a little-endian host and a byte swap on a
 * big-endian one.
 *
 * WireWriter appends; WireReader bounds-checks every read and
 * reports success, so truncated or hostile input degrades to a clean
 * decode failure instead of UB.
 */

#ifndef FT_NET_WIRE_HPP
#define FT_NET_WIRE_HPP

#include <bit>
#include <concepts>
#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <vector>

namespace fasttrack::net {

/** @p v with its bytes in reverse order. */
template <std::unsigned_integral T>
constexpr T
byteSwap(T v)
{
    T out = 0;
    for (std::size_t i = 0; i < sizeof(T); ++i) {
        out = static_cast<T>((out << 8) | (v & 0xffu));
        v = static_cast<T>(v >> 8);
    }
    return out;
}

/** @p v as its little-endian byte image, and back: the identity on a
 *  little-endian host, byteSwap on a big-endian one. */
template <std::unsigned_integral T>
constexpr T
toLittle(T v)
{
    if constexpr (std::endian::native == std::endian::big)
        return byteSwap(v);
    else
        return v;
}

/** Append-only little-endian byte writer. */
class WireWriter
{
  public:
    /** Starts with room for a frame header and the first fields.
     *  Besides skipping the smallest growth steps, this keeps GCC 12
     *  in Release from misreading the first word appends into an
     *  empty vector as overflows (-Wstringop-overflow). */
    WireWriter() { bytes_.reserve(64); }

    void u8(std::uint8_t v) { bytes_.push_back(v); }
    void u16(std::uint16_t v) { word(v); }
    void u32(std::uint32_t v) { word(v); }
    void u64(std::uint64_t v) { word(v); }
    void f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }
    void bytes(const void *p, std::size_t n)
    {
        const auto *b = static_cast<const std::uint8_t *>(p);
        bytes_.insert(bytes_.end(), b, b + n);
    }
    /** u32 length prefix + raw bytes. */
    void str(std::string_view s)
    {
        u32(static_cast<std::uint32_t>(s.size()));
        bytes(s.data(), s.size());
    }

    std::size_t size() const { return bytes_.size(); }
    const std::vector<std::uint8_t> &buffer() const { return bytes_; }
    std::vector<std::uint8_t> take() { return std::move(bytes_); }

  private:
    template <std::unsigned_integral T>
    void word(T v)
    {
        const T image = toLittle(v);
        const auto *p = reinterpret_cast<const std::uint8_t *>(&image);
        bytes_.insert(bytes_.end(), p, p + sizeof(T));
    }

    std::vector<std::uint8_t> bytes_;
};

/** Bounds-checked little-endian reader; every getter reports
 *  success. The reader does not own the bytes. */
class WireReader
{
  public:
    WireReader(const std::uint8_t *data, std::size_t size)
        : data_(data), size_(size)
    {
    }
    explicit WireReader(const std::vector<std::uint8_t> &bytes)
        : WireReader(bytes.data(), bytes.size())
    {
    }

    bool u8(std::uint8_t &v)
    {
        if (size_ - pos_ < 1)
            return false;
        v = data_[pos_++];
        return true;
    }
    bool u16(std::uint16_t &v) { return word(v); }
    bool u32(std::uint32_t &v) { return word(v); }
    bool u64(std::uint64_t &v) { return word(v); }
    bool f64(double &v)
    {
        std::uint64_t bits = 0;
        if (!u64(bits))
            return false;
        v = std::bit_cast<double>(bits);
        return true;
    }
    /** Read a u32-length-prefixed string; rejects lengths past the
     *  end of the buffer before allocating. */
    bool str(std::string &out)
    {
        std::uint32_t len = 0;
        if (!u32(len) || size_ - pos_ < len)
            return false;
        out.assign(reinterpret_cast<const char *>(data_ + pos_), len);
        pos_ += len;
        return true;
    }
    bool bytes(void *p, std::size_t n)
    {
        if (size_ - pos_ < n)
            return false;
        std::memcpy(p, data_ + pos_, n);
        pos_ += n;
        return true;
    }

    std::size_t pos() const { return pos_; }
    std::size_t remaining() const { return size_ - pos_; }
    bool atEnd() const { return pos_ == size_; }

  private:
    template <std::unsigned_integral T>
    bool word(T &v)
    {
        if (size_ - pos_ < sizeof(T))
            return false;
        T image{};
        std::memcpy(&image, data_ + pos_, sizeof(T));
        pos_ += sizeof(T);
        v = toLittle(image);
        return true;
    }

    const std::uint8_t *data_;
    std::size_t size_;
    std::size_t pos_ = 0;
};

} // namespace fasttrack::net

#endif // FT_NET_WIRE_HPP
