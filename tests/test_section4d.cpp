/**
 * @file
 * Section IV-D of the paper, sentence by sentence, as router-level
 * tests: each check quotes the rule it verifies.
 */

#include <gtest/gtest.h>

#include "noc/network.hpp"
#include "route_once.hpp"

namespace fasttrack {
namespace {

constexpr std::uint32_t kN = 8;

Packet
pkt(Coord dst, std::uint64_t id, bool express_class = false)
{
    Packet p;
    p.id = id;
    p.src = 0;
    p.dst = toNodeId(dst, kN);
    p.expressClass = express_class;
    return p;
}

class Section4D : public ::testing::Test
{
  protected:
    Router makeRouter(const NocConfig &cfg, Coord pos)
    {
        topo_ = std::make_unique<Topology>(cfg);
        return Router(*topo_, pos);
    }
    std::unique_ptr<Topology> topo_;
    NocStats stats_;
};

TEST_F(Section4D, TurnCanDeflectColumnTrafficEast)
{
    // "Thus W -> S turn has higher priority and can cause N packet to
    // get deflected E, a turn that is not normally possible."
    Router router = makeRouter(NocConfig::hoplite(kN), {2, 2});
    RouterInputs in{};
    in[static_cast<int>(InPort::wSh)] = pkt({2, 5}, 1); // turning
    in[static_cast<int>(InPort::nSh)] = pkt({2, 6}, 2); // column
    const auto res = route(router, in, std::nullopt, true, 0, stats_);
    EXPECT_EQ(res.out[static_cast<int>(OutPort::sSh)]->id, 1u);
    EXPECT_EQ(res.out[static_cast<int>(OutPort::eSh)]->id, 2u);
}

TEST_F(Section4D, ExpressToShortOnlyAtTurns)
{
    // "we ensure that Express to Short transitions are only possible
    // at a turn from WEx -> SSh or NEx -> ESh ports."
    const NocConfig cfg = NocConfig::fastTrack(kN, 2, 1);
    Topology topo(cfg);
    RouterSite site;
    site.n = kN;
    site.d = 2;
    site.variant = NocVariant::ftFull;
    site.hasEx = site.hasEy = true;
    site.wrapAligned = true;
    EXPECT_TRUE(physicallyReachable(site, InPort::wEx, OutPort::sSh));
    EXPECT_TRUE(physicallyReachable(site, InPort::nEx, OutPort::eSh));
    EXPECT_FALSE(physicallyReachable(site, InPort::wEx, OutPort::eSh));
    EXPECT_FALSE(physicallyReachable(site, InPort::nEx, OutPort::sSh));
}

TEST_F(Section4D, WexTurnHasHighestPriority)
{
    // "This assigns the highest priority to the WEx or NEx ports..."
    Router router = makeRouter(NocConfig::fastTrack(kN, 2, 1), {4, 4});
    RouterInputs in{};
    in[static_cast<int>(InPort::wEx)] = pkt({4, 5}, 1);  // turn S_SH
    in[static_cast<int>(InPort::wSh)] = pkt({4, 6}, 2);  // also wants S
    in[static_cast<int>(InPort::nSh)] = pkt({4, 7}, 3);  // also wants S
    const auto res = route(router, in, std::nullopt, true, 0, stats_);
    EXPECT_EQ(res.out[static_cast<int>(OutPort::sSh)]->id, 1u);
}

TEST_F(Section4D, DeflectedWshReturnsAsExpress)
{
    // "WSh packets that are deflected by WEx -> SSh turn may use EEx
    // port and return as a higher priority WEx packet after exactly
    // one traversal around the ring."
    Router router = makeRouter(NocConfig::fastTrack(kN, 2, 1), {4, 4});
    RouterInputs in{};
    in[static_cast<int>(InPort::wEx)] = pkt({4, 5}, 1); // takes S_SH
    in[static_cast<int>(InPort::wSh)] = pkt({4, 5}, 2); // deflected
    const auto res = route(router, in, std::nullopt, true, 0, stats_);
    // The deflected W_SH leaves on E_EX (wrap-aligned 8x8, D=2).
    ASSERT_TRUE(res.out[static_cast<int>(OutPort::eEx)]);
    EXPECT_EQ(res.out[static_cast<int>(OutPort::eEx)]->id, 2u);
    // Full-network check of "exactly one traversal around the ring":
    // dx becomes N - D and it stays express-aligned.
}

TEST_F(Section4D, NexDeflectsToEExAndReturns)
{
    // "A NEx packet that want to go SEx can be deflected to EEx and
    // will return as WEx packets with high priority."
    NocConfig cfg = NocConfig::fastTrack(kN, 2, 1);
    cfg.allowExpressTurn = true;
    Router router = makeRouter(cfg, {4, 4});
    RouterInputs in{};
    in[static_cast<int>(InPort::wEx)] = pkt({4, 6}, 1);  // S_EX turn
    in[static_cast<int>(InPort::nEx)] = pkt({4, 6}, 2);  // S_EX too
    const auto res = route(router, in, std::nullopt, true, 0, stats_);
    EXPECT_EQ(res.out[static_cast<int>(OutPort::sEx)]->id, 1u);
    ASSERT_TRUE(res.out[static_cast<int>(OutPort::eEx)]);
    EXPECT_EQ(res.out[static_cast<int>(OutPort::eEx)]->id, 2u);
}

TEST_F(Section4D, NPacketsMayTakeEitherEastPort)
{
    // "To avoid livelocks at exits, we must allow N packets to take
    // either E ports."
    Router router = makeRouter(NocConfig::fastTrack(kN, 2, 1), {4, 4});
    RouterInputs in{};
    // Both N inputs at destination; W_EX takes the short exit first.
    in[static_cast<int>(InPort::wEx)] = pkt({4, 4}, 1);  // exits S_SH
    in[static_cast<int>(InPort::nEx)] = pkt({4, 4}, 2);  // exit S_EX
    in[static_cast<int>(InPort::nSh)] = pkt({4, 4}, 3);  // blocked
    const auto res = route(router, in, std::nullopt, true, 0, stats_);
    ASSERT_TRUE(res.delivered.has_value());
    // The losers leave on the two East ports (one each).
    const bool e_sh = res.out[static_cast<int>(OutPort::eSh)]
                          .has_value();
    const bool e_ex = res.out[static_cast<int>(OutPort::eEx)]
                          .has_value();
    EXPECT_TRUE(e_sh && e_ex);
}

TEST_F(Section4D, ColumnProgressOneSwitchAtATime)
{
    // "The routing function is designed to ensure a packet is
    // deflected exactly once per ring and makes progress towards the
    // destination by dropping down the Y ring one switch at a time":
    // full-network check that a column packet's deflections never
    // exceed its southward steps + exit.
    Network noc(NocConfig::hoplite(kN));
    noc.setDeliverCallback([&](const Packet &p, Cycle) {
        const Coord s = toCoord(p.src, kN);
        const Coord d = toCoord(p.dst, kN);
        const std::uint32_t dy = ringDistance(s.y, d.y, kN);
        EXPECT_LE(p.deflections, dy + 1) << p.id;
    });
    // Saturate with pure column traffic plus turning cross traffic.
    std::uint64_t id = 0;
    for (int round = 0; round < 400; ++round) {
        for (NodeId s = 0; s < 64; ++s) {
            if (noc.hasPendingOffer(s))
                continue;
            const Coord c = toCoord(s, kN);
            // Alternate column streams and row->column turners.
            Coord dst = (s % 2 == 0)
                ? Coord{c.x, static_cast<std::uint16_t>((c.y + 3) % kN)}
                : Coord{static_cast<std::uint16_t>((c.x + 3) % kN),
                        static_cast<std::uint16_t>((c.y + 2) % kN)};
            Packet p;
            p.id = ++id;
            p.src = s;
            p.dst = toNodeId(dst, kN);
            noc.offer(p);
        }
        noc.step();
    }
    ASSERT_TRUE(noc.drain(100000));
}

} // namespace
} // namespace fasttrack
