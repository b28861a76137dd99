/**
 * @file
 * Unit tests for the deterministic xoshiro256** RNG wrapper.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <set>
#include <vector>

#include "common/rng.hpp"

namespace fasttrack {
namespace {

/** Inverse of an odd @p a modulo 2^64 (Newton: each step doubles the
 *  correct low bits, and a * a == 1 mod 8 gives the first three). */
constexpr std::uint64_t
inverseMod64(std::uint64_t a)
{
    std::uint64_t x = a;
    for (int i = 0; i < 5; ++i)
        x *= 2 - a * x;
    return x;
}

/** A generator whose next draw is exactly @p r. The xoshiro256**
 *  output depends on state word 1 alone, through invertible steps:
 *  r = rotl(s1 * 5, 7) * 9. */
Rng
rngDrawing(std::uint64_t r)
{
    const std::uint64_t t = r * inverseMod64(9);
    const std::uint64_t s1 = ((t >> 7) | (t << 57)) * inverseMod64(5);
    Rng rng;
    rng.setState({0x9e3779b97f4a7c15ull, s1, 0, 0});
    return rng;
}

/** The probabilities the integer Bernoulli threshold must get exactly
 *  right: round values, the injection rates of the paper's sweeps,
 *  the smallest normal and subnormal steps, and both neighbours of
 *  0.5 and of 1 (where ceil must and must not round up). */
std::vector<double>
bernoulliProbes()
{
    return {1.0,
            0.75,
            0.5,
            0.35,
            0.1,
            0.01,
            0x1.0p-53,
            std::numeric_limits<double>::denorm_min(),
            std::nextafter(0.5, 0.0),
            std::nextafter(0.5, 1.0),
            1.0 - 0x1.0p-53};
}

TEST(Rng, DeterministicForSameSeed)
{
    Rng a(42), b(42);
    for (int i = 0; i < 1000; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiverge)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 100; ++i)
        same += a.next() == b.next();
    EXPECT_LT(same, 2);
}

TEST(Rng, NextBelowStaysInRange)
{
    Rng rng(7);
    for (std::uint64_t bound : {1ull, 2ull, 3ull, 10ull, 1000ull,
                                (1ull << 40)}) {
        for (int i = 0; i < 200; ++i)
            EXPECT_LT(rng.nextBelow(bound), bound);
    }
}

TEST(Rng, NextBelowOneIsAlwaysZero)
{
    Rng rng(7);
    for (int i = 0; i < 50; ++i)
        EXPECT_EQ(rng.nextBelow(1), 0u);
}

TEST(Rng, NextRangeInclusiveBounds)
{
    Rng rng(11);
    bool saw_lo = false, saw_hi = false;
    for (int i = 0; i < 2000; ++i) {
        const auto v = rng.nextRange(-3, 3);
        EXPECT_GE(v, -3);
        EXPECT_LE(v, 3);
        saw_lo |= v == -3;
        saw_hi |= v == 3;
    }
    EXPECT_TRUE(saw_lo);
    EXPECT_TRUE(saw_hi);
}

TEST(Rng, NextDoubleInUnitInterval)
{
    Rng rng(13);
    for (int i = 0; i < 2000; ++i) {
        const double d = rng.nextDouble();
        EXPECT_GE(d, 0.0);
        EXPECT_LT(d, 1.0);
    }
}

TEST(Rng, UniformityCoarseChiSquare)
{
    // 16 buckets x 16k draws: each bucket should be within 10% of the
    // expected count for a healthy generator.
    Rng rng(17);
    constexpr int kBuckets = 16;
    constexpr int kDraws = 1 << 16;
    std::vector<int> counts(kBuckets, 0);
    for (int i = 0; i < kDraws; ++i)
        ++counts[rng.nextBelow(kBuckets)];
    const double expect = static_cast<double>(kDraws) / kBuckets;
    for (int c : counts) {
        EXPECT_NEAR(c, expect, expect * 0.10);
    }
}

TEST(Rng, BernoulliRate)
{
    Rng rng(19);
    for (double p : {0.05, 0.3, 0.9}) {
        int hits = 0;
        constexpr int kDraws = 20000;
        for (int i = 0; i < kDraws; ++i)
            hits += rng.nextBool(p);
        EXPECT_NEAR(static_cast<double>(hits) / kDraws, p, 0.02);
    }
}

TEST(Rng, DrawingHelperForcesTheNextDraw)
{
    for (std::uint64_t r : {0ull, 1ull, 0x8000000000000000ull,
                            0xfedcba9876543210ull, ~0ull}) {
        Rng rng = rngDrawing(r);
        EXPECT_EQ(rng.next(), r);
    }
}

TEST(Rng, BernoulliThresholdDecidesLikeNextBoolAtItsBoundary)
{
    constexpr std::uint64_t kDraws = std::uint64_t{1} << 53;
    for (double p : bernoulliProbes()) {
        const std::uint64_t t = Rng::bernoulliThreshold(p);
        ASSERT_GE(t, 1u) << p;
        ASSERT_LE(t, kDraws) << p;
        // k is the 53-bit draw nextDouble scales; the discarded low
        // 11 bits must not matter, so try them clear and all set.
        for (std::uint64_t k : {t - 1, t}) {
            if (k >= kDraws)
                continue;
            for (std::uint64_t low : {0ull, 0x7ffull}) {
                Rng a = rngDrawing((k << 11) | low);
                Rng b = a;
                const bool expect = k < t;
                EXPECT_EQ(a.nextBool(p), expect)
                    << "p=" << p << " k=" << k;
                EXPECT_EQ(b.nextBernoulli(t), expect)
                    << "p=" << p << " k=" << k;
            }
        }
    }
}

TEST(Rng, BernoulliThresholdMatchesNextBoolOverAStream)
{
    for (double p : bernoulliProbes()) {
        const std::uint64_t t = Rng::bernoulliThreshold(p);
        Rng a(29), b(29);
        int mismatches = 0;
        for (int i = 0; i < 1'000'000; ++i)
            mismatches += a.nextBool(p) != b.nextBernoulli(t);
        EXPECT_EQ(mismatches, 0) << "p=" << p;
        EXPECT_EQ(a.next(), b.next()) << "p=" << p;
    }
}

TEST(Rng, BernoulliThresholdOutsideTheUnitInterval)
{
    // Never for p <= 0 or NaN (nextDouble() < p never holds), always
    // for p >= 1 (it always holds).
    EXPECT_EQ(Rng::bernoulliThreshold(0.0), 0u);
    EXPECT_EQ(Rng::bernoulliThreshold(-0.5), 0u);
    EXPECT_EQ(Rng::bernoulliThreshold(std::nan("")), 0u);
    EXPECT_EQ(Rng::bernoulliThreshold(1.0), std::uint64_t{1} << 53);
    EXPECT_EQ(Rng::bernoulliThreshold(2.0), std::uint64_t{1} << 53);
}

TEST(Rng, SplitProducesIndependentStream)
{
    Rng a(23);
    Rng b = a.split();
    std::set<std::uint64_t> seen;
    for (int i = 0; i < 100; ++i) {
        seen.insert(a.next());
        seen.insert(b.next());
    }
    // All 200 draws distinct: streams do not mirror each other.
    EXPECT_EQ(seen.size(), 200u);
}

} // namespace
} // namespace fasttrack
