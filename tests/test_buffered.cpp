/**
 * @file
 * Tests for the buffered (CONNECT-class) baseline router.
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

TEST(Buffered, ZeroLoadXyPath)
{
    auto noc = InputQueuedNetwork::mesh(8, 4);
    std::optional<Packet> got;
    Cycle when = 0;
    noc.setDeliverCallback([&](const Packet &p, Cycle c) {
        got = p;
        when = c;
    });
    // (1,1) -> (5,4): |dx|=4, |dy|=3 -> 7 link hops on the mesh.
    noc.offer(pkt(toNodeId({1, 1}, 8), toNodeId({5, 4}, 8)));
    ASSERT_TRUE(noc.drain(1000));
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(got->totalHops(), 7u);
    // Injection + 7 hops + delivery arbitration, one cycle each.
    EXPECT_LE(when, 12u);
}

TEST(Buffered, MeshHasNoWraparound)
{
    auto noc = InputQueuedNetwork::mesh(4, 2);
    std::optional<Packet> got;
    noc.setDeliverCallback(
        [&](const Packet &p, Cycle) { got = p; });
    // (3,0) -> (0,0) must go 3 hops west, not 1 hop east-wrap.
    noc.offer(pkt(toNodeId({3, 0}, 4), toNodeId({0, 0}, 4)));
    ASSERT_TRUE(noc.drain(1000));
    EXPECT_EQ(got->totalHops(), 3u);
}

TEST(Buffered, NeverDropsUnderSaturation)
{
    for (std::uint32_t depth : {1u, 2u, 8u}) {
        auto noc = InputQueuedNetwork::mesh(8, depth);
        std::map<std::uint64_t, int> seen;
        noc.setDeliverCallback(
            [&](const Packet &p, Cycle) { ++seen[p.id]; });
        Rng rng(51);
        std::uint64_t id = 0;
        for (int cycle = 0; cycle < 400; ++cycle) {
            for (NodeId s = 0; s < 64; ++s) {
                if (!noc.hasPendingOffer(s)) {
                    NodeId d =
                        static_cast<NodeId>(rng.nextBelow(63));
                    if (d >= s)
                        ++d;
                    noc.offer(pkt(s, d, ++id));
                }
            }
            noc.step();
        }
        ASSERT_TRUE(noc.drain(200000)) << "depth " << depth;
        EXPECT_EQ(seen.size(), id);
        for (const auto &[packet_id, count] : seen)
            EXPECT_EQ(count, 1) << packet_id;
    }
}

TEST(Buffered, BackpressureBlocksInjection)
{
    // Hotspot: everyone sends to one corner; with depth-1 FIFOs the
    // network must assert backpressure rather than lose packets.
    auto noc = InputQueuedNetwork::mesh(4, 1);
    std::uint64_t delivered = 0;
    noc.setDeliverCallback(
        [&](const Packet &, Cycle) { ++delivered; });
    std::uint64_t id = 0;
    for (int round = 0; round < 50; ++round) {
        for (NodeId s = 1; s < 16; ++s) {
            if (!noc.hasPendingOffer(s))
                noc.offer(pkt(s, 0, ++id));
        }
        noc.step();
    }
    EXPECT_GT(noc.statsSnapshot().injectionBlockedCycles, 0u);
    ASSERT_TRUE(noc.drain(100000));
    EXPECT_EQ(delivered, id);
}

TEST(Buffered, HigherSaturationThanHoplite)
{
    // Buffered routers avoid deflection waste: packets/cycle at
    // saturation beats bufferless Hoplite (the Fig 1 premise - they
    // pay for it in area and clock instead).
    SyntheticWorkload workload;
    workload.pattern = TrafficPattern::random;
    workload.injectionRate = 1.0;
    workload.packetsPerPe = 256;

    auto buffered = InputQueuedNetwork::mesh(8, 8);
    const SynthResult b = runSynthetic(buffered, workload, 5'000'000);
    const SynthResult h =
        runSynthetic(NocConfig::hoplite(8), 1, workload, 5'000'000);
    ASSERT_TRUE(b.completed && h.completed);
    EXPECT_GT(b.sustainedRate(), h.sustainedRate() * 1.5);
}

TEST(Buffered, DeeperFifosHelpThroughput)
{
    auto rate = [](std::uint32_t depth) {
        SyntheticWorkload workload;
        workload.pattern = TrafficPattern::random;
        workload.injectionRate = 1.0;
        workload.packetsPerPe = 200;
        auto noc = InputQueuedNetwork::mesh(8, depth);
        return runSynthetic(noc, workload, 5'000'000).sustainedRate();
    };
    EXPECT_GT(rate(8), rate(1));
}

TEST(Buffered, FairRoundRobinUnderContention)
{
    // Two streams crossing one output: deliveries should interleave
    // roughly evenly.
    auto noc = InputQueuedNetwork::mesh(4, 4);
    std::map<NodeId, std::uint64_t> by_src;
    noc.setDeliverCallback(
        [&](const Packet &p, Cycle) { ++by_src[p.src]; });
    std::uint64_t id = 0;
    const NodeId a = toNodeId({0, 1}, 4);
    const NodeId b = toNodeId({1, 0}, 4);
    const NodeId dst = toNodeId({3, 1}, 4);
    for (int cycle = 0; cycle < 300; ++cycle) {
        if (!noc.hasPendingOffer(a))
            noc.offer(pkt(a, dst, ++id));
        if (!noc.hasPendingOffer(b))
            noc.offer(pkt(b, dst, ++id));
        noc.step();
    }
    ASSERT_TRUE(noc.drain(10000));
    const double ratio = static_cast<double>(by_src[a]) /
                         static_cast<double>(by_src[b]);
    EXPECT_GT(ratio, 0.5);
    EXPECT_LT(ratio, 2.0);
}

TEST(Buffered, WorksWithTraceReplay)
{
    Trace t;
    t.name = "buffered";
    t.n = 4;
    t.add({0, 15, 0, 0});
    t.add({15, 0, 0, 2}, {0});
    auto noc = InputQueuedNetwork::mesh(4, 4);
    const RunResult r = runSim(
        {.device = &noc, .trace = &t, .sim = {.maxCycles = 10000}});
    EXPECT_TRUE(r.trace.completed);
}

} // namespace
} // namespace fasttrack
