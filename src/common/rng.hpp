/**
 * @file
 * Deterministic pseudo-random number generation for simulations.
 *
 * Every stochastic component in the library draws from an explicitly
 * seeded Rng so that experiments are bit-reproducible across runs and
 * platforms. The generator is xoshiro256** (Blackman & Vigna), which is
 * fast, has a 2^256-1 period, and passes BigCrush.
 */

#ifndef FT_COMMON_RNG_HPP
#define FT_COMMON_RNG_HPP

#include <array>
#include <cstdint>

#include "common/logging.hpp"

namespace fasttrack {

/**
 * splitmix64 single-step mix (Steele, Lea & Flanagan): gamma-add then
 * avalanche. The canonical way to derive independent, well-mixed
 * sub-seeds from a base seed (Rng state expansion, per-point sweep
 * seeds); nearby inputs yield uncorrelated outputs.
 */
inline std::uint64_t
splitmix64(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

/**
 * xoshiro256** pseudo-random generator with convenience draws.
 *
 * Not a std-style engine on purpose: the simulator needs only a handful
 * of draw shapes and we want identical streams on every platform
 * (std::uniform_int_distribution is implementation-defined).
 *
 * The raw draw and the shapes built directly on it are defined inline:
 * traffic generators call them once per node per cycle, which makes
 * the call overhead itself measurable at scale.
 */
class Rng
{
  public:
    /** Seed via splitmix64 expansion of @p seed. */
    explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ull);

    /** Next raw 64-bit draw. */
    std::uint64_t next()
    {
        const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
        const std::uint64_t t = s_[1] << 17;

        s_[2] ^= s_[0];
        s_[3] ^= s_[1];
        s_[1] ^= s_[2];
        s_[0] ^= s_[3];
        s_[2] ^= t;
        s_[3] = rotl(s_[3], 45);

        return result;
    }

    /** Uniform integer in [0, bound), bound > 0. Unbiased (rejection). */
    std::uint64_t nextBelow(std::uint64_t bound)
    {
        FT_ASSERT(bound > 0, "nextBelow(0)");
        // Lemire-style rejection for unbiased draws. Callers with a
        // fixed bound on a hot path can precompute this threshold and
        // an exact reciprocal modulus (see DestinationGenerator) to
        // draw the same stream without the two hardware divides.
        const std::uint64_t threshold = (0 - bound) % bound;
        for (;;) {
            const std::uint64_t r = next();
            if (r >= threshold)
                return r % bound;
        }
    }

    /** Uniform integer in [lo, hi] inclusive. */
    std::int64_t nextRange(std::int64_t lo, std::int64_t hi);

    /** Uniform double in [0, 1). */
    double nextDouble()
    {
        return static_cast<double>(next() >> 11) * 0x1.0p-53;
    }

    /** Bernoulli draw with probability @p p. */
    bool nextBool(double p) { return nextDouble() < p; }

    /**
     * Integer form of a fixed Bernoulli probability: the threshold
     * T = ceil(p * 2^53), clamped to [0, 2^53]. Both nextDouble() < p
     * and (next() >> 11) < T compare the same 53-bit draw exactly
     * (scaling by a power of two loses nothing), so for every double
     * p nextBernoulli(bernoulliThreshold(p)) makes the decision
     * nextBool(p) would make from the same draw.
     */
    static std::uint64_t bernoulliThreshold(double p);

    /** Bernoulli draw against a precomputed bernoulliThreshold():
     *  one shift and one integer compare, no int-to-double convert. */
    bool nextBernoulli(std::uint64_t threshold)
    {
        return (next() >> 11) < threshold;
    }

    /** Fork an independent stream (hash-mixed from this stream). */
    Rng split();

    /** The full 256-bit generator state, for checkpointing: a stream
     *  restored via setState continues bit-identically from where
     *  state() captured it. */
    std::array<std::uint64_t, 4> state() const
    {
        return {s_[0], s_[1], s_[2], s_[3]};
    }
    void setState(const std::array<std::uint64_t, 4> &s)
    {
        s_[0] = s[0];
        s_[1] = s[1];
        s_[2] = s[2];
        s_[3] = s[3];
    }

  private:
    static std::uint64_t rotl(std::uint64_t x, int k)
    {
        return (x << k) | (x >> (64 - k));
    }

    std::uint64_t s_[4];
};

} // namespace fasttrack

#endif // FT_COMMON_RNG_HPP
