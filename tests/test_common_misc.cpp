/**
 * @file
 * Coverage for the small shared utilities: coordinates and NocStats
 * helper arithmetic.
 */

#include <gtest/gtest.h>

#include <unordered_set>
#include <vector>

#include "common/types.hpp"
#include "noc/noc_stats.hpp"

namespace fasttrack {
namespace {

TEST(Types, FastMod64MatchesHardwareModulo)
{
    for (std::uint64_t d :
         {1ull, 2ull, 3ull, 7ull, 8ull, 63ull, 64ull, 255ull, 1023ull,
          4095ull, 65535ull, (1ull << 32) - 1, (1ull << 32) + 1}) {
        const FastMod64 f(d);
        std::vector<std::uint64_t> probes;
        for (std::uint64_t v = 0; v < 3 * d + 4 && v < 1000; ++v)
            probes.push_back(v);
        for (std::uint64_t v :
             {~0ull, ~0ull - 1, 1ull << 63, (1ull << 63) - 1,
              0x123456789abcdefull})
            probes.push_back(v);
        for (std::uint64_t k = 1; k <= 4; ++k) {
            probes.push_back(k * d - 1);
            probes.push_back(k * d);
            probes.push_back(k * d + 1);
        }
        for (std::uint64_t v : probes) {
            EXPECT_EQ(f.mod(v), v % d) << "v=" << v << " d=" << d;
        }
    }
}

TEST(Types, RingDistanceMatchesModuloForm)
{
    for (std::uint32_t n : {1u, 2u, 3u, 8u, 13u, 16u}) {
        for (std::uint32_t from = 0; from < n; ++from) {
            for (std::uint32_t to = 0; to < n; ++to) {
                EXPECT_EQ(ringDistance(from, to, n),
                          (to + n - from) % n)
                    << "from=" << from << " to=" << to << " n=" << n;
            }
        }
    }
}

TEST(Types, CoordRoundTrip)
{
    for (std::uint32_t n : {2u, 5u, 8u, 16u}) {
        for (NodeId id = 0; id < n * n; ++id) {
            const Coord c = toCoord(id, n);
            EXPECT_LT(c.x, n);
            EXPECT_LT(c.y, n);
            EXPECT_EQ(toNodeId(c, n), id);
        }
    }
}

TEST(Types, RingDistance)
{
    EXPECT_EQ(ringDistance(0, 0, 8), 0u);
    EXPECT_EQ(ringDistance(0, 3, 8), 3u);
    EXPECT_EQ(ringDistance(3, 0, 8), 5u); // unidirectional wrap
    EXPECT_EQ(ringDistance(7, 0, 8), 1u);
    EXPECT_EQ(ringDistance(5, 5, 8), 0u);
}

TEST(Types, CoordToString)
{
    EXPECT_EQ(coordToString({3, 7}), "(3,7)");
}

TEST(Types, CoordHashDistinguishes)
{
    std::unordered_set<std::size_t> hashes;
    std::hash<Coord> h;
    for (std::uint16_t x = 0; x < 16; ++x)
        for (std::uint16_t y = 0; y < 16; ++y)
            hashes.insert(h(Coord{x, y}));
    EXPECT_EQ(hashes.size(), 256u);
}

TEST(NocStatsHelpers, Totals)
{
    NocStats s;
    s.deflectionsByPort[0] = 3;
    s.deflectionsByPort[3] = 4;
    s.misroutesByPort[1] = 2;
    EXPECT_EQ(s.totalDeflections(), 7u);
    EXPECT_EQ(s.totalMisroutes(), 2u);
}

TEST(NocStatsHelpers, SustainedRateAndActivity)
{
    NocStats s;
    s.delivered = 640;
    EXPECT_DOUBLE_EQ(s.sustainedRate(64, 100), 0.1);
    EXPECT_DOUBLE_EQ(s.sustainedRate(64, 0), 0.0);

    s.shortHopTraversals = 150;
    s.expressHopTraversals = 50;
    EXPECT_DOUBLE_EQ(s.linkActivity(100, 10), 0.2);
    EXPECT_DOUBLE_EQ(s.linkActivity(0, 10), 0.0);
}

TEST(NocStatsHelpers, MergeAddsEverything)
{
    NocStats a, b;
    a.injected = 1;
    a.laneDeflections = 2;
    a.totalLatency.add(10);
    b.injected = 3;
    b.exitBlocked = 5;
    b.totalLatency.add(20);
    a.merge(b);
    EXPECT_EQ(a.injected, 4u);
    EXPECT_EQ(a.laneDeflections, 2u);
    EXPECT_EQ(a.exitBlocked, 5u);
    EXPECT_EQ(a.totalLatency.count(), 2u);
    EXPECT_DOUBLE_EQ(a.totalLatency.mean(), 15.0);
}

TEST(NocStatsHelpers, ResetClears)
{
    NocStats s;
    s.injected = 7;
    s.hopCount.add(3);
    s.reset();
    EXPECT_EQ(s.injected, 0u);
    EXPECT_EQ(s.hopCount.count(), 0u);
}

} // namespace
} // namespace fasttrack
