#include "traffic/pattern.hpp"

#include <bit>

#include "common/logging.hpp"

namespace fasttrack {

const char *
toString(TrafficPattern pattern)
{
    switch (pattern) {
      case TrafficPattern::random: return "RANDOM";
      case TrafficPattern::local: return "LOCAL";
      case TrafficPattern::bitComplement: return "BITCOMPL";
      case TrafficPattern::transpose: return "TRANSPOSE";
    }
    return "?";
}

std::optional<TrafficPattern>
patternFromString(const std::string &name)
{
    if (name == "RANDOM" || name == "random")
        return TrafficPattern::random;
    if (name == "LOCAL" || name == "local")
        return TrafficPattern::local;
    if (name == "BITCOMPL" || name == "bitcompl")
        return TrafficPattern::bitComplement;
    if (name == "TRANSPOSE" || name == "transpose")
        return TrafficPattern::transpose;
    return std::nullopt;
}

std::string
patternValidationError(TrafficPattern pattern, std::uint32_t n,
                       std::uint32_t local_radius)
{
    const std::uint64_t pes = std::uint64_t{n} * n;
    if (pattern == TrafficPattern::bitComplement &&
        !std::has_single_bit(pes))
        return detail::concat(
            "BITCOMPL needs a power-of-two PE count, got ", pes);
    if (pattern == TrafficPattern::local && local_radius < 1)
        return "LOCAL radius must be >= 1";
    return "";
}

DestinationGenerator::DestinationGenerator(TrafficPattern pattern,
                                           std::uint32_t n,
                                           std::uint32_t local_radius)
    : pattern_(pattern), n_(n), localRadius_(local_radius)
{
    FT_ASSERT(n_ >= 2, "torus side must be >= 2");
    const std::string error =
        patternValidationError(pattern_, n_, localRadius_);
    if (!error.empty())
        FT_FATAL(error);
    if (pattern_ == TrafficPattern::random) {
        const std::uint64_t bound = std::uint64_t{n_} * n_ - 1;
        randomThreshold_ = (0 - bound) % bound;
        randomMod_.init(bound);
    }
}

} // namespace fasttrack
