/**
 * @file
 * Single-router arbitration tests: priority order, deflection
 * accounting, injection gating, and the bufferless permutation
 * property under randomized full-load inputs.
 */

#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "route_once.hpp"

namespace fasttrack {
namespace {

Packet
pkt(Coord dst, std::uint32_t n, std::uint64_t id = 1,
    bool express_class = false)
{
    Packet p;
    p.id = id;
    p.src = 0;
    p.dst = toNodeId(dst, n);
    p.expressClass = express_class;
    return p;
}

class RouterTest : public ::testing::Test
{
  protected:
    static constexpr std::uint32_t kN = 8;

    Router makeRouter(const NocConfig &cfg, Coord pos)
    {
        topo_ = std::make_unique<Topology>(cfg);
        return Router(*topo_, pos);
    }

    std::unique_ptr<Topology> topo_;
    NocStats stats_;
};

TEST_F(RouterTest, TurnBeatsRingTraffic)
{
    // W wants to turn South; N wants to continue South. The paper's
    // livelock rule: the turn wins, N deflects East.
    Router router = makeRouter(NocConfig::hoplite(kN), {3, 3});
    RouterInputs in{};
    in[static_cast<int>(InPort::wSh)] = pkt({3, 6}, kN, 1); // turn S
    in[static_cast<int>(InPort::nSh)] = pkt({3, 7}, kN, 2); // continue

    const auto res = route(router, in, std::nullopt, true, 0, stats_);
    ASSERT_TRUE(res.out[static_cast<int>(OutPort::sSh)]);
    EXPECT_EQ(res.out[static_cast<int>(OutPort::sSh)]->id, 1u);
    ASSERT_TRUE(res.out[static_cast<int>(OutPort::eSh)]);
    EXPECT_EQ(res.out[static_cast<int>(OutPort::eSh)]->id, 2u);
    // The deflected N packet is charged a deflection.
    EXPECT_EQ(res.out[static_cast<int>(OutPort::eSh)]->deflections, 1u);
    EXPECT_EQ(stats_.deflectionsByPort[static_cast<int>(InPort::nSh)],
              1u);
}

TEST_F(RouterTest, RingFirstPriorityFlipsTheOutcome)
{
    NocConfig cfg = NocConfig::hoplite(kN);
    cfg.turnPriority = false;
    Router router = makeRouter(cfg, {3, 3});
    RouterInputs in{};
    in[static_cast<int>(InPort::wSh)] = pkt({3, 6}, kN, 1);
    in[static_cast<int>(InPort::nSh)] = pkt({3, 7}, kN, 2);

    const auto res = route(router, in, std::nullopt, true, 0, stats_);
    EXPECT_EQ(res.out[static_cast<int>(OutPort::sSh)]->id, 2u);
    EXPECT_EQ(res.out[static_cast<int>(OutPort::eSh)]->id, 1u);
}

TEST_F(RouterTest, WexBeatsEveryone)
{
    // W_EX turning to S_SH displaces even a W_SH exit.
    Router router = makeRouter(NocConfig::fastTrack(kN, 2, 1), {3, 3});
    RouterInputs in{};
    in[static_cast<int>(InPort::wEx)] = pkt({3, 4}, kN, 1); // turn S_SH
    in[static_cast<int>(InPort::wSh)] = pkt({3, 3}, kN, 2); // exit here

    const auto res = route(router, in, std::nullopt, true, 0, stats_);
    // dy=1 is express-misaligned, so W_EX takes S_SH; the exiting W_SH
    // is deflected (exit shares S_SH).
    ASSERT_TRUE(res.out[static_cast<int>(OutPort::sSh)]);
    EXPECT_EQ(res.out[static_cast<int>(OutPort::sSh)]->id, 1u);
    EXPECT_FALSE(res.delivered.has_value());
    EXPECT_GE(stats_.exitBlocked, 0u);
}

TEST_F(RouterTest, DeliveryAtDestination)
{
    Router router = makeRouter(NocConfig::hoplite(kN), {2, 5});
    RouterInputs in{};
    in[static_cast<int>(InPort::wSh)] = pkt({2, 5}, kN, 9);
    const auto res = route(router, in, std::nullopt, true, 0, stats_);
    ASSERT_TRUE(res.delivered.has_value());
    EXPECT_EQ(res.delivered->id, 9u);
    EXPECT_EQ(res.deliveredFrom, InPort::wSh);
    // The exit consumed S_SH: nothing forwarded on it.
    EXPECT_FALSE(res.out[static_cast<int>(OutPort::sSh)]);
}

TEST_F(RouterTest, ExitGateForcesDeflection)
{
    Router router = makeRouter(NocConfig::hoplite(kN), {2, 5});
    RouterInputs in{};
    in[static_cast<int>(InPort::wSh)] = pkt({2, 5}, kN, 9);
    const auto res = route(router, in, std::nullopt, /*exit_ok=*/false,
                           0, stats_);
    EXPECT_FALSE(res.delivered.has_value());
    // Packet must still be forwarded somewhere.
    int forwarded = 0;
    for (const auto &o : res.out)
        forwarded += o.has_value();
    EXPECT_EQ(forwarded, 1);
    EXPECT_GE(stats_.exitBlocked, 1u);
}

TEST_F(RouterTest, OnlyOneExitPerCycle)
{
    // Two packets at destination: one exits, the other deflects.
    Router router = makeRouter(NocConfig::fastTrack(kN, 2, 1), {2, 4});
    RouterInputs in{};
    in[static_cast<int>(InPort::wSh)] = pkt({2, 4}, kN, 1);
    in[static_cast<int>(InPort::nSh)] = pkt({2, 4}, kN, 2);
    const auto res = route(router, in, std::nullopt, true, 0, stats_);
    ASSERT_TRUE(res.delivered.has_value());
    int forwarded = 0;
    for (const auto &o : res.out)
        forwarded += o.has_value();
    EXPECT_EQ(forwarded, 1);
}

TEST_F(RouterTest, InjectionBlockedWhenOutputBusy)
{
    Router router = makeRouter(NocConfig::hoplite(kN), {0, 0});
    RouterInputs in{};
    // In-flight W packet continues East...
    in[static_cast<int>(InPort::wSh)] = pkt({5, 0}, kN, 1);
    // ...and the PE wants to inject Eastbound too.
    const auto offer = std::optional<Packet>(pkt({3, 0}, kN, 2));
    const auto res = route(router, in, offer, true, 0, stats_);
    EXPECT_FALSE(res.peAccepted);
    EXPECT_EQ(stats_.injectionBlockedCycles, 1u);
    // PE never steals from in-flight traffic.
    EXPECT_EQ(res.out[static_cast<int>(OutPort::eSh)]->id, 1u);
}

TEST_F(RouterTest, InjectionTakesExpressWhenEligible)
{
    Router router = makeRouter(NocConfig::fastTrack(kN, 2, 1), {0, 0});
    RouterInputs in{};
    const auto offer = std::optional<Packet>(pkt({4, 0}, kN, 2));
    const auto res = route(router, in, offer, true, 0, stats_);
    EXPECT_TRUE(res.peAccepted);
    ASSERT_TRUE(res.out[static_cast<int>(OutPort::eEx)]);
    EXPECT_EQ(res.out[static_cast<int>(OutPort::eEx)]->expressHops, 1u);
}

TEST_F(RouterTest, HopCountersTrackLaneClasses)
{
    Router router = makeRouter(NocConfig::fastTrack(kN, 2, 1), {0, 0});
    RouterInputs in{};
    in[static_cast<int>(InPort::wSh)] = pkt({1, 0}, kN, 1); // short E
    in[static_cast<int>(InPort::wEx)] = pkt({4, 0}, kN, 2); // express E
    const auto res = route(router, in, std::nullopt, true, 0, stats_);
    EXPECT_EQ(stats_.shortHopTraversals, 1u);
    EXPECT_EQ(stats_.expressHopTraversals, 1u);
    EXPECT_EQ(res.out[static_cast<int>(OutPort::eSh)]->shortHops, 1u);
    EXPECT_EQ(res.out[static_cast<int>(OutPort::eEx)]->expressHops, 1u);
}

/**
 * Property: with all four inputs loaded with random packets, the
 * router always forwards each input to a distinct output (permutation
 * property of a bufferless switch), for every variant and router kind.
 */
class RouterPermutationTest
    : public ::testing::TestWithParam<std::tuple<int, int>>
{};

TEST_P(RouterPermutationTest, AllInputsForwardedDistinctly)
{
    const int variant_idx = std::get<0>(GetParam());
    const int pos_idx = std::get<1>(GetParam());
    constexpr std::uint32_t n = 8;

    NocConfig cfg;
    switch (variant_idx) {
      case 0: cfg = NocConfig::hoplite(n); break;
      case 1: cfg = NocConfig::fastTrack(n, 2, 1); break;
      case 2: cfg = NocConfig::fastTrack(n, 2, 2); break;
      case 3:
        cfg = NocConfig::fastTrack(n, 2, 2, NocVariant::ftInject);
        break;
      case 4: cfg = NocConfig::fastTrack(n, 3, 1); break;
      default: FAIL();
    }
    Topology topo(cfg);
    const Coord pos{static_cast<std::uint16_t>(pos_idx % n),
                    static_cast<std::uint16_t>(pos_idx / n)};
    Router router(topo, pos);
    NocStats stats;
    Rng rng(1234 + variant_idx * 100 + pos_idx);

    for (int trial = 0; trial < 300; ++trial) {
        RouterInputs in{};
        int loaded = 0;
        for (int port = 0; port < 4; ++port) {
            const auto p = static_cast<InPort>(port);
            // Respect port existence (depopulated routers).
            if (p == InPort::wEx && !topo.hasExpressX(pos.x))
                continue;
            if (p == InPort::nEx && !topo.hasExpressY(pos.y))
                continue;
            if (rng.nextBool(0.85)) {
                Coord dst{static_cast<std::uint16_t>(rng.nextBelow(n)),
                          static_cast<std::uint16_t>(rng.nextBelow(n))};
                // Express inputs in the inject variant carry
                // express-class packets.
                const bool exp_class =
                    cfg.variant == NocVariant::ftInject &&
                    isExpress(p);
                in[port] = pkt(dst, n, trial * 10 + port, exp_class);
                ++loaded;
            }
        }
        const bool gate = rng.nextBool(0.8);
        const auto res = route(router, in, std::nullopt, gate, 0, stats);

        int forwarded = 0;
        for (const auto &o : res.out)
            forwarded += o.has_value();
        forwarded += res.delivered.has_value();
        EXPECT_EQ(forwarded, loaded) << "trial " << trial;
    }
}

INSTANTIATE_TEST_SUITE_P(
    VariantsAndPositions, RouterPermutationTest,
    ::testing::Combine(::testing::Range(0, 5),
                       ::testing::Values(0, 1, 9, 27, 36, 63)));

} // namespace
} // namespace fasttrack
