/**
 * @file
 * The one field codec: put() writes a value as wire words and get()
 * reads it back, for every payload the simulator stores or sends
 * (run inputs, results, engine and driver state, message envelopes).
 *
 * A value maps by its type alone:
 *   bool                 u8, 0 or 1 (any other byte is refused)
 *   u8, u16, u32, u64    that word
 *   an enum              its underlying word; get() refuses a value
 *                        knownValue(E), found beside the enum, denies
 *   double               f64
 *   Histogram            u64 bin count, then (u64 value, u64 count)
 *                        per bin, ascending by value
 *   std::array           its items, no count
 *   std::pair            first, then second
 *   any other range      u32 count, then its items
 *   a struct             its fields, in the order of the visitFields
 *                        beside its definition
 * A struct lists its fields once, so its encoder and decoder cannot
 * drift apart; tests/test_run_codec.cpp pins the bytes, which a round
 * trip alone cannot. get() bounds every count by the bytes left before
 * it allocates, so hostile input is a clean false, never UB.
 */

#ifndef FT_NET_CODEC_HPP
#define FT_NET_CODEC_HPP

#include <array>
#include <cstddef>
#include <cstdint>
#include <ranges>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/stats.hpp"
#include "net/wire.hpp"

namespace fasttrack::net {

namespace detail {

template <typename T>
inline constexpr bool isArray = false;
template <typename T, std::size_t N>
inline constexpr bool isArray<std::array<T, N>> = true;

template <typename T>
inline constexpr bool isPair = false;
template <typename A, typename B>
inline constexpr bool isPair<std::pair<A, B>> = true;

} // namespace detail

inline void
put(WireWriter &w, const Histogram &h)
{
    const auto &bins = h.bins();
    w.u64(bins.size());
    for (const auto &[value, count] : bins) {
        w.u64(value);
        w.u64(count);
    }
}

/** Adds the bins to @p h (see Histogram::addBins); refuses a zero
 *  count. */
inline bool
get(WireReader &r, Histogram &h)
{
    std::uint64_t count = 0;
    if (!r.u64(count) || count > r.remaining() / 16)
        return false;
    std::vector<Histogram::Bin> bins(static_cast<std::size_t>(count));
    for (auto &[value, n] : bins) {
        if (!r.u64(value) || !r.u64(n) || n == 0)
            return false;
    }
    h.addBins(std::move(bins));
    return true;
}

/** Write @p in as wire words (see the file comment). */
template <typename T>
void
put(WireWriter &w, const T &in)
{
    if constexpr (std::is_same_v<T, bool>) {
        w.u8(in ? 1 : 0);
    } else if constexpr (std::is_enum_v<T>) {
        put(w, static_cast<std::make_unsigned_t<std::underlying_type_t<T>>>(
                   in));
    } else if constexpr (std::is_same_v<T, std::uint8_t>) {
        w.u8(in);
    } else if constexpr (std::is_same_v<T, std::uint16_t>) {
        w.u16(in);
    } else if constexpr (std::is_same_v<T, std::uint32_t>) {
        w.u32(in);
    } else if constexpr (std::is_same_v<T, std::uint64_t>) {
        w.u64(in);
    } else if constexpr (std::is_same_v<T, double>) {
        w.f64(in);
    } else if constexpr (detail::isArray<T>) {
        for (const auto &item : in)
            put(w, item);
    } else if constexpr (detail::isPair<T>) {
        put(w, in.first);
        put(w, in.second);
    } else if constexpr (std::ranges::sized_range<T>) {
        w.u32(static_cast<std::uint32_t>(in.size()));
        for (const auto &item : in)
            put(w, item);
    } else {
        visitFields(in, [&w](const auto &...fields) {
            (put(w, fields), ...);
        });
    }
}

/** Fewest wire bytes any T takes — the encoding of a default T, whose
 *  ranges are empty. A decoder bounds a count of Ts by the bytes left
 *  divided by this before it allocates. */
template <typename T>
std::size_t
minWireBytes()
{
    static const std::size_t bytes = [] {
        WireWriter w;
        put(w, T{});
        return w.size();
    }();
    return bytes;
}

template <typename T>
bool get(WireReader &r, T &out);

/** Read @p count items written without a count (one the fields before
 *  them imply) into @p out; refuses a count the bytes left cannot
 *  hold before it allocates. */
template <typename T>
bool
getItems(WireReader &r, std::vector<T> &out, std::size_t count)
{
    if (count > r.remaining() / minWireBytes<T>())
        return false;
    out.resize(count);
    for (auto &item : out) {
        if (!get(r, item))
            return false;
    }
    return true;
}

/** Read @p out as wire words; false when truncated or out of range
 *  (see the file comment). */
template <typename T>
bool
get(WireReader &r, T &out)
{
    if constexpr (std::is_same_v<T, bool>) {
        std::uint8_t byte = 0;
        if (!r.u8(byte) || byte > 1)
            return false;
        out = byte != 0;
        return true;
    } else if constexpr (std::is_enum_v<T>) {
        std::make_unsigned_t<std::underlying_type_t<T>> raw = 0;
        if (!get(r, raw))
            return false;
        out = static_cast<T>(raw);
        return knownValue(out);
    } else if constexpr (std::is_same_v<T, std::uint8_t>) {
        return r.u8(out);
    } else if constexpr (std::is_same_v<T, std::uint16_t>) {
        return r.u16(out);
    } else if constexpr (std::is_same_v<T, std::uint32_t>) {
        return r.u32(out);
    } else if constexpr (std::is_same_v<T, std::uint64_t>) {
        return r.u64(out);
    } else if constexpr (std::is_same_v<T, double>) {
        return r.f64(out);
    } else if constexpr (detail::isArray<T>) {
        for (auto &item : out) {
            if (!get(r, item))
                return false;
        }
        return true;
    } else if constexpr (detail::isPair<T>) {
        return get(r, out.first) && get(r, out.second);
    } else if constexpr (std::ranges::sized_range<T>) {
        std::uint32_t count = 0;
        return r.u32(count) && getItems(r, out, count);
    } else {
        return visitFields(out, [&r](auto &...fields) {
            return (get(r, fields) && ...);
        });
    }
}

} // namespace fasttrack::net

#endif // FT_NET_CODEC_HPP
