/**
 * @file
 * Fundamental scalar types and small value types shared by every
 * FastTrack library.
 */

#ifndef FT_COMMON_TYPES_HPP
#define FT_COMMON_TYPES_HPP

#include <cstdint>
#include <compare>
#include <functional>
#include <string>

namespace fasttrack {

/** Simulation time in NoC clock cycles. */
using Cycle = std::uint64_t;

/** Flat node (PE / router) identifier, row-major: id = y * N + x. */
using NodeId = std::uint32_t;

/** Sentinel for "no node". */
inline constexpr NodeId kInvalidNode = 0xffffffffu;

/**
 * 2D torus coordinate. Each network is N x N; x grows East, y grows
 * South, matching the unidirectional ring directions of Hoplite.
 */
struct Coord
{
    std::uint16_t x = 0;
    std::uint16_t y = 0;

    auto operator<=>(const Coord &) const = default;
};

/** Convert a flat id to a coordinate on an N x N torus. */
constexpr Coord
toCoord(NodeId id, std::uint32_t n)
{
    return Coord{static_cast<std::uint16_t>(id % n),
                 static_cast<std::uint16_t>(id / n)};
}

/** Convert a coordinate to a flat id on an N x N torus. */
constexpr NodeId
toNodeId(Coord c, std::uint32_t n)
{
    return static_cast<NodeId>(c.y) * n + c.x;
}

/** Eastward (positive-x) distance from @p from to @p to on an N-ring.
 *  Both positions must already be ring coordinates (< n). */
constexpr std::uint32_t
ringDistance(std::uint32_t from, std::uint32_t to, std::uint32_t n)
{
    // from, to < n makes to + n - from < 2n, so one conditional
    // subtract replaces the hardware modulo.
    const std::uint32_t t = to + n - from;
    return t >= n ? t - n : t;
}

/**
 * Exact v % d for a full 64-bit v against a fixed divisor, without the
 * hardware divider: a round-down reciprocal gives a quotient estimate
 * at most two short, fixed up with conditional subtractions. Traffic
 * generators use it to reduce raw 64-bit RNG draws modulo a constant
 * bound, where the result must be bit-identical to v % d (the draw
 * stream is pinned by golden-stats tests).
 */
class FastMod64
{
  public:
    FastMod64() = default;
    explicit FastMod64(std::uint64_t divisor) { init(divisor); }

    void init(std::uint64_t divisor)
    {
        d_ = divisor;
        // floor(2^64 / d) up to one short (exact unless d divides
        // 2^64); any shortfall only widens the fix-up below.
        m_ = ~std::uint64_t{0} / divisor;
    }

    std::uint64_t mod(std::uint64_t v) const
    {
#ifdef __SIZEOF_INT128__
        if (d_ == 1)
            return 0;
        // q <= floor(v/d) and misses it by at most 2, so the remainder
        // estimate needs at most two subtractions of d.
        const auto q = static_cast<std::uint64_t>(
            (static_cast<unsigned __int128>(m_) * v) >> 64);
        std::uint64_t r = v - q * d_;
        while (r >= d_)
            r -= d_;
        return r;
#else
        return v % d_;
#endif
    }

    std::uint64_t divisor() const { return d_; }

  private:
    std::uint64_t m_ = 0;
    std::uint64_t d_ = 1;
};

/** Render a coordinate as "(x,y)" for logs and tables. */
std::string inline
coordToString(Coord c)
{
    // Appended piecewise: a "lit" + std::string chain trips GCC 12's
    // -Wrestrict false positive once inlined into Release builds.
    std::string s = "(";
    s += std::to_string(c.x);
    s += ',';
    s += std::to_string(c.y);
    s += ')';
    return s;
}

} // namespace fasttrack

template <>
struct std::hash<fasttrack::Coord>
{
    std::size_t
    operator()(const fasttrack::Coord &c) const noexcept
    {
        return (static_cast<std::size_t>(c.y) << 16) | c.x;
    }
};

#endif // FT_COMMON_TYPES_HPP
