/**
 * @file
 * Tests for the VC-torus (OpenSMART-class) baseline: shortest-path
 * wrap routing, dateline deadlock freedom under adversarial
 * saturation, and conservation.
 */

#include <gtest/gtest.h>

#include <map>

#include "common/rng.hpp"
#include "noc/input_queued.hpp"
#include "sim/simulation.hpp"

namespace fasttrack {
namespace {

Packet
pkt(NodeId src, NodeId dst, std::uint64_t id = 1)
{
    Packet p;
    p.id = id;
    p.src = src;
    p.dst = dst;
    return p;
}

TEST(VcTorus, ShortestPathUsesWraparound)
{
    auto noc = InputQueuedNetwork::torus(8, 2, 4);
    std::optional<Packet> got;
    noc.setDeliverCallback(
        [&](const Packet &p, Cycle) { got = p; });
    // (7,0) -> (0,0): one wrap hop East, not seven West.
    noc.offer(pkt(toNodeId({7, 0}, 8), toNodeId({0, 0}, 8)));
    ASSERT_TRUE(noc.drain(1000));
    EXPECT_EQ(got->totalHops(), 1u);
    EXPECT_EQ(noc.datelineCrossings(), 1u);
}

TEST(VcTorus, ShortestPathBothDirections)
{
    auto noc = InputQueuedNetwork::torus(8, 2, 4);
    std::optional<Packet> got;
    noc.setDeliverCallback(
        [&](const Packet &p, Cycle) { got = p; });
    // (0,0) -> (3,5): 3 East + 3 North (wrap via y=7) = 6 hops.
    noc.offer(pkt(toNodeId({0, 0}, 8), toNodeId({3, 5}, 8)));
    ASSERT_TRUE(noc.drain(1000));
    EXPECT_EQ(got->totalHops(), 6u);
}

TEST(VcTorus, DeadlockFreeUnderRingSaturation)
{
    // The classic torus deadlock: every node floods its own row with
    // half-ring transfers so the wraparound cycle fills. The dateline
    // VCs must keep it live.
    auto noc = InputQueuedNetwork::torus(8, 2, 2);
    std::map<std::uint64_t, int> seen;
    noc.setDeliverCallback(
        [&](const Packet &p, Cycle) { ++seen[p.id]; });
    std::uint64_t id = 0;
    for (int round = 0; round < 300; ++round) {
        for (NodeId s = 0; s < 64; ++s) {
            if (!noc.hasPendingOffer(s)) {
                const Coord c = toCoord(s, 8);
                const Coord d{static_cast<std::uint16_t>(
                                  (c.x + 4) % 8), c.y};
                noc.offer(pkt(s, toNodeId(d, 8), ++id));
            }
        }
        noc.step();
    }
    ASSERT_TRUE(noc.drain(200000));
    EXPECT_EQ(seen.size(), id);
    EXPECT_GT(noc.datelineCrossings(), 0u);
}

TEST(VcTorus, SaturatedRandomConserves)
{
    for (std::uint32_t vcs : {2u, 4u}) {
        auto noc = InputQueuedNetwork::torus(8, vcs, 2);
        SyntheticWorkload workload;
        workload.pattern = TrafficPattern::random;
        workload.injectionRate = 1.0;
        workload.packetsPerPe = 200;
        const SynthResult res = runSynthetic(noc, workload, 5'000'000);
        ASSERT_TRUE(res.completed) << "VCs=" << vcs;
        EXPECT_EQ(res.stats.delivered + res.stats.selfDelivered,
                  200ull * 64);
    }
}

TEST(VcTorus, BeatsMeshOnWrapHeavyTraffic)
{
    // The torus' raison d'etre: average distance is nearly halved, so
    // on uniform random it beats both Hoplite (deflections) and
    // should show the highest packets/cycle of all baselines.
    auto torus = InputQueuedNetwork::torus(8, 2, 8);
    SyntheticWorkload workload;
    workload.pattern = TrafficPattern::random;
    workload.injectionRate = 1.0;
    workload.packetsPerPe = 256;
    const SynthResult t = runSynthetic(torus, workload, 5'000'000);
    const SynthResult h =
        runSynthetic(NocConfig::hoplite(8), 1, workload, 5'000'000);
    ASSERT_TRUE(t.completed && h.completed);
    EXPECT_GT(t.sustainedRate(), 2.0 * h.sustainedRate());
}

TEST(VcTorus, ZeroLoadLatencyNearDistance)
{
    auto noc = InputQueuedNetwork::torus(8, 2, 4);
    Cycle when = 0;
    Packet seen;
    noc.setDeliverCallback([&](const Packet &p, Cycle c) {
        seen = p;
        when = c;
    });
    noc.offer(pkt(toNodeId({1, 1}, 8), toNodeId({4, 3}, 8)));
    ASSERT_TRUE(noc.drain(1000));
    EXPECT_EQ(seen.totalHops(), 5u);
    // 1 injection + 5 hops + 1 delivery arbitration step each.
    EXPECT_LE(when, 9u);
}

TEST(VcTorusDeathTest, NeedsEscapeVc)
{
    EXPECT_DEATH(InputQueuedNetwork::torus(8, 1, 4), "2 VCs");
}

} // namespace
} // namespace fasttrack
