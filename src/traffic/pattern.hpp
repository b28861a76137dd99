/**
 * @file
 * Synthetic statistical traffic patterns used throughout the paper's
 * evaluation: RANDOM, LOCAL, BITCOMPL and TRANSPOSE (Section VI).
 */

#ifndef FT_TRAFFIC_PATTERN_HPP
#define FT_TRAFFIC_PATTERN_HPP

#include <algorithm>
#include <optional>
#include <string>

#include "common/logging.hpp"
#include "common/rng.hpp"
#include "common/types.hpp"

namespace fasttrack {

/** The four synthetic patterns of Figs 11/12. */
enum class TrafficPattern
{
    /** Uniform random destination (excluding self). */
    random,
    /** Uniform destination within a small forward routing
     *  neighbourhood (dx + dy <= radius on the unidirectional torus). */
    local,
    /** dst = bitwise complement of src id (needs power-of-two PEs). */
    bitComplement,
    /** (x, y) -> (y, x); diagonal nodes talk to themselves. */
    transpose,
};

/** True when @p p names a declared pattern; wire decoders refuse the
 *  rest (net/codec.hpp). */
constexpr bool
knownValue(TrafficPattern p)
{
    return static_cast<unsigned>(p) <=
           static_cast<unsigned>(TrafficPattern::transpose);
}

const char *toString(TrafficPattern pattern);
/** The pattern toString() names @p name (or its lower-case form), or
 *  nullopt. */
std::optional<TrafficPattern> patternFromString(const std::string &name);

/** Why @p pattern cannot run on an @p n x @p n torus with LOCAL
 *  radius @p local_radius (the first rule it breaks), or empty when it
 *  can. Never aborts: a daemon checks hostile requests with it. */
std::string patternValidationError(TrafficPattern pattern,
                                   std::uint32_t n,
                                   std::uint32_t local_radius);

/** All four patterns, in the paper's plotting order. */
inline constexpr TrafficPattern kAllPatterns[] = {
    TrafficPattern::bitComplement,
    TrafficPattern::local,
    TrafficPattern::random,
    TrafficPattern::transpose,
};

/**
 * Destination generator for one pattern on an N x N torus.
 * Deterministic patterns ignore the Rng.
 */
class DestinationGenerator
{
  public:
    DestinationGenerator(TrafficPattern pattern, std::uint32_t n,
                         std::uint32_t local_radius = 2);

    /** Destination for a packet sourced at @p src. May equal @p src
     *  only for deterministic self-mapping patterns (transpose
     *  diagonal); such packets are delivered locally by the NoC.
     *  Always inlined: injectors draw one destination per node per
     *  cycle, and a call would also force the caller's generator out
     *  of registers (-O2 keeps this body out of line otherwise). */
    [[gnu::always_inline]] NodeId dest(NodeId src, Rng &rng) const
    {
        const std::uint32_t nodes = n_ * n_;
        FT_ASSERT(src < nodes, "bad source node");
        const Coord s = toCoord(src, n_);

        switch (pattern_) {
          case TrafficPattern::random: {
            // Uniform over the other nodes. Same rejection scheme (and
            // therefore the same draw stream) as
            // rng.nextBelow(nodes - 1), but with the threshold and
            // modulus precomputed: the two per-call hardware divides
            // dominate the injector otherwise.
            std::uint64_t r;
            do {
                r = rng.next();
            } while (r < randomThreshold_);
            auto d = static_cast<NodeId>(randomMod_.mod(r));
            if (d >= src)
                ++d;
            return d;
          }

          case TrafficPattern::local: {
            // Uniform over forward neighbourhood 1 <= dx + dy <= radius
            // (forward because the torus rings are unidirectional).
            // Clamp so a wrapped displacement can never land back on
            // the source (dx, dy < N).
            const std::uint32_t radius = std::min(localRadius_, n_ - 1);
            // Count of (dx, dy) pairs with dx + dy = k is k + 1;
            // sample a pair directly instead of materializing the
            // neighbourhood.
            std::uint32_t total = 0;
            for (std::uint32_t k = 1; k <= radius; ++k)
                total += k + 1;
            std::uint32_t pick =
                static_cast<std::uint32_t>(rng.nextBelow(total));
            std::uint32_t k = 1;
            while (pick > k) {
                pick -= k + 1;
                ++k;
            }
            const std::uint32_t dx = pick; // 0..k
            const std::uint32_t dy = k - dx;
            const Coord d{
                static_cast<std::uint16_t>((s.x + dx) % n_),
                static_cast<std::uint16_t>((s.y + dy) % n_)};
            return toNodeId(d, n_);
          }

          case TrafficPattern::bitComplement:
            return (~src) & (nodes - 1);

          case TrafficPattern::transpose:
            return toNodeId(Coord{s.y, s.x}, n_);
        }
        FT_PANIC("unknown pattern");
    }

    TrafficPattern pattern() const { return pattern_; }

  private:
    TrafficPattern pattern_;
    std::uint32_t n_;
    std::uint32_t localRadius_;
    /** RANDOM draws one destination per node per cycle, so the
     *  rejection threshold and the reciprocal modulus for the fixed
     *  bound (nodes - 1) are precomputed here; the draw stream is
     *  bit-identical to Rng::nextBelow(nodes - 1). */
    std::uint64_t randomThreshold_ = 0;
    FastMod64 randomMod_;
};

} // namespace fasttrack

#endif // FT_TRAFFIC_PATTERN_HPP
