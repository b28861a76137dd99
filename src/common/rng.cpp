#include "common/rng.hpp"

#include <cmath>

namespace fasttrack {

Rng::Rng(std::uint64_t seed)
{
    // Same expansion stream as the classic stateful splitmix64 loop:
    // word i = splitmix64(seed + i * gamma).
    std::uint64_t sm = seed;
    for (auto &word : s_) {
        word = splitmix64(sm);
        sm += 0x9e3779b97f4a7c15ull;
    }
}

std::uint64_t
Rng::bernoulliThreshold(double p)
{
    constexpr std::uint64_t kAlways = std::uint64_t{1} << 53;
    // !(p > 0) also catches NaN, which nextBool never accepts.
    if (!(p > 0.0))
        return 0;
    if (p >= 1.0)
        return kAlways;
    return static_cast<std::uint64_t>(std::ceil(std::ldexp(p, 53)));
}

std::int64_t
Rng::nextRange(std::int64_t lo, std::int64_t hi)
{
    FT_ASSERT(lo <= hi, "nextRange(", lo, ",", hi, ")");
    const auto span = static_cast<std::uint64_t>(hi - lo) + 1;
    return lo + static_cast<std::int64_t>(nextBelow(span));
}

Rng
Rng::split()
{
    return Rng(next() ^ 0xd1b54a32d192ed03ull);
}

} // namespace fasttrack
