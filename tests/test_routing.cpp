/**
 * @file
 * Tests for the routing policy: candidate-list construction, the
 * paper's sanctioned lane transitions, express eligibility, the
 * physical reachability matrix of each router variant, and the
 * precomputed decision tables the router looks the policy up in.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <ostream>
#include <string>
#include <thread>
#include <vector>

#include "noc/network.hpp"
#include "noc/router.hpp"
#include "noc/routing.hpp"
#include "traffic/injector.hpp"

#include "golden_hash.hpp"
#include "legal_configs.hpp"

namespace fasttrack {
namespace {

RouterSite
fullSite(std::uint32_t n = 8, std::uint32_t d = 2, bool ex = true,
         bool ey = true)
{
    RouterSite s;
    s.n = n;
    s.d = d;
    s.variant = NocVariant::ftFull;
    s.hasEx = ex;
    s.hasEy = ey;
    s.wrapAligned = n % d == 0;
    return s;
}

TEST(Reachability, HopliteOnlyShortLanes)
{
    RouterSite s;
    s.n = 8;
    s.variant = NocVariant::hoplite;
    for (InPort in : {InPort::wSh, InPort::nSh, InPort::pe}) {
        EXPECT_TRUE(physicallyReachable(s, in, OutPort::eSh));
        EXPECT_TRUE(physicallyReachable(s, in, OutPort::sSh));
        EXPECT_FALSE(physicallyReachable(s, in, OutPort::eEx));
        EXPECT_FALSE(physicallyReachable(s, in, OutPort::sEx));
    }
}

TEST(Reachability, FullVariantSanctionedTransitionsOnly)
{
    const RouterSite s = fullSite();
    // W_EX can turn to S_SH (sanctioned) but never go E_SH straight.
    EXPECT_TRUE(physicallyReachable(s, InPort::wEx, OutPort::sSh));
    EXPECT_FALSE(physicallyReachable(s, InPort::wEx, OutPort::eSh));
    // N_EX can turn to E_SH (sanctioned) but never go S_SH straight.
    EXPECT_TRUE(physicallyReachable(s, InPort::nEx, OutPort::eSh));
    EXPECT_FALSE(physicallyReachable(s, InPort::nEx, OutPort::sSh));
    // Short inputs have full lane-change freedom in the Full router.
    for (OutPort out : {OutPort::eEx, OutPort::eSh, OutPort::sEx,
                        OutPort::sSh}) {
        EXPECT_TRUE(physicallyReachable(s, InPort::wSh, out));
        EXPECT_TRUE(physicallyReachable(s, InPort::nSh, out));
        EXPECT_TRUE(physicallyReachable(s, InPort::pe, out));
    }
}

TEST(Reachability, InjectVariantForbidsLaneCrossing)
{
    RouterSite s = fullSite();
    s.variant = NocVariant::ftInject;
    EXPECT_TRUE(physicallyReachable(s, InPort::wEx, OutPort::eEx));
    EXPECT_TRUE(physicallyReachable(s, InPort::wEx, OutPort::sEx));
    EXPECT_FALSE(physicallyReachable(s, InPort::wEx, OutPort::sSh));
    EXPECT_FALSE(physicallyReachable(s, InPort::wSh, OutPort::eEx));
    EXPECT_TRUE(physicallyReachable(s, InPort::pe, OutPort::eEx));
    EXPECT_TRUE(physicallyReachable(s, InPort::pe, OutPort::eSh));
}

TEST(Reachability, DepopulationRemovesPorts)
{
    const RouterSite s = fullSite(8, 2, /*ex=*/false, /*ey=*/true);
    EXPECT_FALSE(physicallyReachable(s, InPort::wSh, OutPort::eEx));
    EXPECT_TRUE(physicallyReachable(s, InPort::wSh, OutPort::sEx));
    EXPECT_FALSE(physicallyReachable(s, InPort::wEx, OutPort::sSh));
}

TEST(ExpressEligibility, AlignmentRule)
{
    const RouterSite s = fullSite(8, 2);
    EXPECT_TRUE(expressEligible(s, true, 2));
    EXPECT_TRUE(expressEligible(s, true, 4));
    EXPECT_TRUE(expressEligible(s, true, 6));
    EXPECT_FALSE(expressEligible(s, true, 1));
    EXPECT_FALSE(expressEligible(s, true, 3)); // misaligned
    EXPECT_FALSE(expressEligible(s, true, 0)); // nothing left
}

TEST(ExpressEligibility, RequiresPorts)
{
    const RouterSite s = fullSite(8, 2, /*ex=*/false, /*ey=*/true);
    EXPECT_FALSE(expressEligible(s, true, 4));
    EXPECT_TRUE(expressEligible(s, false, 4));
}

TEST(Candidates, WexContinuesOnExpress)
{
    const auto c = routeCandidates(fullSite(), InPort::wEx, 4, 3,
                                   false);
    ASSERT_GE(c.size(), 1u);
    EXPECT_EQ(c[0].out, OutPort::eEx);
    EXPECT_FALSE(c[0].exit);
}

TEST(Candidates, WexTurnsAtColumnViaSanctionedMux)
{
    // dx == 0, dy misaligned: express turn unavailable -> S_SH.
    const auto c = routeCandidates(fullSite(), InPort::wEx, 0, 3,
                                   false);
    EXPECT_EQ(c[0].out, OutPort::sSh);
}

TEST(Candidates, WexExpressTurnWhenAligned)
{
    const auto c = routeCandidates(fullSite(), InPort::wEx, 0, 4,
                                   false);
    EXPECT_EQ(c[0].out, OutPort::sEx);
}

TEST(Candidates, WexExpressTurnSuppressedByPolicyFlag)
{
    RouterSite s = fullSite();
    s.allowExpressTurn = false;
    const auto c = routeCandidates(s, InPort::wEx, 0, 4, false);
    EXPECT_EQ(c[0].out, OutPort::sSh);
}

TEST(Candidates, WexExitAtDestination)
{
    const auto c = routeCandidates(fullSite(), InPort::wEx, 0, 0,
                                   false);
    EXPECT_EQ(c[0].out, OutPort::sSh);
    EXPECT_TRUE(c[0].exit);
}

TEST(Candidates, NexExitUsesExpressTap)
{
    const auto c = routeCandidates(fullSite(), InPort::nEx, 0, 0,
                                   false);
    EXPECT_EQ(c[0].out, OutPort::sEx);
    EXPECT_TRUE(c[0].exit);
}

TEST(Candidates, NexEscapesMisalignedViaEastShort)
{
    const auto c = routeCandidates(fullSite(), InPort::nEx, 0, 3,
                                   false);
    EXPECT_EQ(c[0].out, OutPort::eSh);
}

TEST(Candidates, WshUpgradesWhenAligned)
{
    const auto c = routeCandidates(fullSite(), InPort::wSh, 4, 0,
                                   false);
    EXPECT_EQ(c[0].out, OutPort::eEx);
    // And not when the upgrade flag is off.
    RouterSite s = fullSite();
    s.allowUpgrade = false;
    const auto c2 = routeCandidates(s, InPort::wSh, 4, 0, false);
    EXPECT_EQ(c2[0].out, OutPort::eSh);
}

TEST(Candidates, WshPrefersShortWhenMisaligned)
{
    const auto c = routeCandidates(fullSite(), InPort::wSh, 3, 0,
                                   false);
    EXPECT_EQ(c[0].out, OutPort::eSh);
}

TEST(Candidates, ListsAlwaysEndWithEveryPhysicalOutput)
{
    // Property: whatever the packet state, the candidate list covers
    // all physically reachable outputs (bufferless totality).
    for (std::uint32_t dx : {0u, 1u, 2u, 3u, 4u, 7u}) {
        for (std::uint32_t dy : {0u, 1u, 2u, 3u, 4u, 7u}) {
            for (InPort in : {InPort::wEx, InPort::nEx, InPort::wSh,
                              InPort::nSh}) {
                const RouterSite s = fullSite();
                const auto c = routeCandidates(s, in, dx, dy, false);
                for (OutPort out : {OutPort::eEx, OutPort::eSh,
                                    OutPort::sEx, OutPort::sSh}) {
                    if (physicallyReachable(s, in, out)) {
                        EXPECT_TRUE(c.contains(out))
                            << toString(in) << " dx=" << dx
                            << " dy=" << dy << " missing "
                            << toString(out);
                    }
                }
            }
        }
    }
}

TEST(Candidates, HopliteDeflectionOrder)
{
    RouterSite s;
    s.n = 8;
    s.variant = NocVariant::hoplite;
    // N wanting S falls back to E (the classic deflection).
    const auto c = routeCandidates(s, InPort::nSh, 0, 3, false);
    ASSERT_GE(c.size(), 2u);
    EXPECT_EQ(c[0].out, OutPort::sSh);
    EXPECT_EQ(c[1].out, OutPort::eSh);
}

TEST(Candidates, InjectVariantNorthExpressNeverExitsShortOfX)
{
    // Under the ring-first ablation an N_EX packet can take E_EX from
    // a W_EX packet, which then turns South with X distance left. At
    // the next router it must rejoin the X ring, not fire the S_EX
    // exit tap at a node that is not its destination.
    RouterSite s = fullSite(4, 1);
    s.variant = NocVariant::ftInject;
    for (std::uint32_t dy : {0u, 1u, 2u}) {
        const auto c = routeCandidates(s, InPort::nEx, 2, dy, true);
        ASSERT_GE(c.size(), 2u);
        EXPECT_EQ(c[0].out, OutPort::eEx) << "dy=" << dy;
        for (std::size_t i = 0; i < c.size(); ++i)
            EXPECT_FALSE(c[i].exit) << "dy=" << dy << " entry " << i;
    }
}

TEST(Inject, ProductiveOnlyNoDeflectionEntries)
{
    bool express = false;
    const auto c = injectCandidates(fullSite(), 3, 2, express);
    for (std::size_t i = 0; i < c.size(); ++i) {
        // All entries route East (the DOR direction for dx > 0).
        EXPECT_TRUE(c[i].out == OutPort::eEx || c[i].out == OutPort::eSh);
    }
}

TEST(Inject, InjectVariantWholeTripRule)
{
    RouterSite s = fullSite(8, 2);
    s.variant = NocVariant::ftInject;
    bool express = false;

    // Fully aligned both dims -> express class.
    auto c = injectCandidates(s, 4, 2, express);
    EXPECT_TRUE(express);
    EXPECT_EQ(c[0].out, OutPort::eEx);

    // Misaligned dx -> short class.
    c = injectCandidates(s, 3, 2, express);
    EXPECT_FALSE(express);
    EXPECT_EQ(c[0].out, OutPort::eSh);

    // Pure-Y aligned trip -> express via S.
    c = injectCandidates(s, 0, 4, express);
    EXPECT_TRUE(express);
    EXPECT_EQ(c[0].out, OutPort::sEx);

    // No Y express at this router -> short (exit tap unreachable).
    RouterSite grey = s;
    grey.hasEy = false;
    c = injectCandidates(grey, 4, 0, express);
    EXPECT_FALSE(express);
}

TEST(InjectDeathTest, SelfAddressedPacketsRejected)
{
    RouterSite s = fullSite();
    bool express = false;
    EXPECT_DEATH(injectCandidates(s, 0, 0, express), "self-addressed");
}

TEST(Candidates, PortNamesRoundTrip)
{
    EXPECT_STREQ(toString(InPort::wEx), "W_EX");
    EXPECT_STREQ(toString(OutPort::sSh), "S_SH");
    EXPECT_STREQ(toString(InPort::pe), "PE");
}

/** What arbitration does with one packet given its candidates. */
struct Outcome
{
    bool delivered = false;
    bool exitBlocked = false;
    OutPort out = OutPort::none;
    bool deflected = false;
    bool lane = false;
    bool misroute = false;
    bool express = false;
    bool expressClass = false;

    bool operator==(const Outcome &) const = default;
};

std::ostream &
operator<<(std::ostream &os, const Outcome &o)
{
    return os << "{delivered " << o.delivered << ", exitBlocked "
              << o.exitBlocked << ", out " << toString(o.out)
              << ", deflected " << o.deflected << ", lane " << o.lane
              << ", misroute " << o.misroute << ", express "
              << o.express << ", expressClass " << o.expressClass << "}";
}

/** The greedy walk over a candidate list, entry by entry, for an
 *  in-flight packet with remaining distances (dx, dy). */
Outcome
walkList(const CandidateList &cands, unsigned taken, bool exit_ok,
         std::uint32_t dx, std::uint32_t dy)
{
    Outcome o;
    for (std::size_t i = 0; i < cands.size(); ++i) {
        const Candidate &c = cands[i];
        if (c.exit && !exit_ok) {
            o.exitBlocked = true;
            continue;
        }
        if (taken & (1u << static_cast<unsigned>(c.out)))
            continue;
        o.out = c.out;
        o.deflected = i != 0;
        if (c.exit) {
            o.delivered = true;
            return o;
        }
        o.lane = i != 0 && isExpress(cands[0].out) && !isExpress(c.out);
        const bool east = c.out == OutPort::eEx || c.out == OutPort::eSh;
        o.misroute = east ? dx == 0 : !(dx == 0 && dy > 0);
        o.express = isExpress(c.out);
        return o;
    }
    return o;
}

/** The same packet decided by routeCore's table lookups. */
Outcome
lookUp(const CandidateTable &table, std::size_t row, unsigned taken,
       bool exit_ok)
{
    Outcome o;
    const OutPort exit = table.exitPort(row);
    if (exit != OutPort::none) {
        if (!exit_ok) {
            o.exitBlocked = true;
        } else if (!(taken & (1u << static_cast<unsigned>(exit)))) {
            o.delivered = true;
            o.out = exit;
            return o;
        }
    }
    const unsigned d = table.route(row, taken);
    if (d & CandidateTable::kNone)
        return o;
    o.out = static_cast<OutPort>(d & CandidateTable::kPortMask);
    o.deflected = d & CandidateTable::kDeflect;
    o.lane = d & CandidateTable::kLane;
    o.misroute = d & CandidateTable::kMisroute;
    o.express = d & CandidateTable::kExpress;
    return o;
}

/** Every legal topology of side @p n with the two policy flags in all
 *  four combinations. */
std::vector<NocConfig>
legalConfigs(std::uint32_t n)
{
    std::vector<NocConfig> configs;
    for (const NocConfig &base : legalTopologies(n)) {
        for (bool turn : {false, true}) {
            for (bool upgrade : {false, true}) {
                NocConfig cfg = base;
                cfg.allowExpressTurn = turn;
                cfg.allowUpgrade = upgrade;
                configs.push_back(cfg);
            }
        }
    }
    return configs;
}

TEST(CandidateTable, RingClassesMatchDivision)
{
    for (std::uint32_t n = 2; n <= 16; ++n) {
        for (std::uint32_t d = 0; d <= n / 2; ++d) {
            const RingClasses classes(n, d);
            ASSERT_EQ(classes.xy.size(), n * n);
            for (NodeId id = 0; id < n * n; ++id) {
                EXPECT_EQ(classes.xy[id] & 0xffffu, id % n);
                EXPECT_EQ(classes.xy[id] >> 16, id / n);
            }
            for (std::uint32_t from = 0; from < n; ++from) {
                for (std::uint32_t to = 0; to < n; ++to) {
                    EXPECT_EQ(classes.cls[to + n - from],
                              CandidateTable::classOf(
                                  (to + n - from) % n, d))
                        << "n=" << n << " d=" << d << " from=" << from
                        << " to=" << to;
                }
            }
        }
    }
}

TEST(CandidateTable, MatchesDirectBuildersForEveryDistance)
{
    // One process-wide table per site kind, built at a canonical D,
    // claims to decide exactly as walking the builders' lists does for
    // every N and D. Check it exhaustively: every legal config of side
    // 2..16 with both policy flags, every site kind it has, every
    // input port and (dx, dy) < n classed by the device's lookups,
    // every taken-outputs mask and both exit availabilities; and every
    // injection.
    std::uint64_t cases = 0;
    std::uint64_t mismatches = 0;
    const auto check = [&](const Outcome &want, const Outcome &got,
                           const auto &where) {
        ++cases;
        if (want == got)
            return;
        if (++mismatches <= 10) {
            ADD_FAILURE() << where() << "\n  builders " << want
                          << "\n  table    " << got;
        }
    };

    for (std::uint32_t n = 2; n <= 16; ++n) {
        for (const NocConfig &cfg : legalConfigs(n)) {
            const Topology topo(cfg);
            const RingClasses classes(n, cfg.isFastTrack() ? cfg.d : 0);
            std::vector<std::size_t> kinds_seen;
            for (std::uint16_t pos = 0; pos < 4; ++pos) {
                const Coord at{static_cast<std::uint16_t>(pos % 2),
                               static_cast<std::uint16_t>(pos / 2)};
                const RouterSite site = Router::siteFor(topo, at);
                const std::size_t kind = CandidateTable::kindOf(site);
                if (std::find(kinds_seen.begin(), kinds_seen.end(),
                              kind) != kinds_seen.end()) {
                    continue;
                }
                kinds_seen.push_back(kind);
                const CandidateTable &table =
                    CandidateTable::forSite(site);

                for (std::uint32_t dx = 0; dx < n; ++dx) {
                    for (std::uint32_t dy = 0; dy < n; ++dy) {
                        // The device classes a destination dx east and
                        // dy south of router (0, 0).
                        const std::uint8_t dxc = classes.cls[dx + n];
                        const std::uint8_t dyc = classes.cls[dy + n];
                        const auto where = [&] {
                            return cfg.describe() + " expressTurn=" +
                                   std::to_string(cfg.allowExpressTurn) +
                                   " upgrade=" +
                                   std::to_string(cfg.allowUpgrade) +
                                   " ex=" + std::to_string(site.hasEx) +
                                   " ey=" + std::to_string(site.hasEy) +
                                   " dx=" + std::to_string(dx) +
                                   " dy=" + std::to_string(dy);
                        };
                        for (std::size_t in = 0; in < 4; ++in) {
                            const CandidateList cands = routeCandidates(
                                site, static_cast<InPort>(in), dx, dy,
                                false);
                            const std::size_t row =
                                CandidateTable::row(in, dxc, dyc);
                            for (unsigned taken = 0; taken < 16;
                                 ++taken) {
                                for (bool exit_ok : {false, true}) {
                                    check(walkList(cands, taken, exit_ok,
                                                   dx, dy),
                                          lookUp(table, row, taken,
                                                 exit_ok),
                                          [&] {
                                              return where() + " in=" +
                                                     toString(static_cast<
                                                         InPort>(in)) +
                                                     " taken=" +
                                                     std::to_string(taken) +
                                                     " exit_ok=" +
                                                     std::to_string(
                                                         exit_ok);
                                          });
                                }
                            }
                        }
                        if (dx == 0 && dy == 0)
                            continue; // self-traffic never injects
                        bool express = false;
                        const CandidateList cands =
                            injectCandidates(site, dx, dy, express);
                        for (unsigned taken = 0; taken < 16; ++taken) {
                            Outcome want;
                            for (std::size_t i = 0; i < cands.size(); ++i) {
                                const OutPort out = cands[i].out;
                                if (taken &
                                    (1u << static_cast<unsigned>(out)))
                                    continue;
                                want.out = out;
                                want.express = isExpress(out);
                                want.expressClass = express;
                                break;
                            }
                            const unsigned d =
                                table.inject(dxc, dyc, taken);
                            Outcome got;
                            if (!(d & CandidateTable::kNone)) {
                                got.out = static_cast<OutPort>(
                                    d & CandidateTable::kPortMask);
                                got.express = d & CandidateTable::kExpress;
                                got.expressClass =
                                    d & CandidateTable::kExpressClass;
                            }
                            check(want, got, [&] {
                                return where() + " inject taken=" +
                                       std::to_string(taken);
                            });
                        }
                    }
                }
            }
        }
    }
    EXPECT_EQ(mismatches, 0u) << "of " << cases << " cases";
    EXPECT_GT(cases, 10'000'000u);
}

/** Stats hash of a short synthetic run on a fresh @p cfg device. */
std::uint64_t
shortRun(const NocConfig &cfg)
{
    Network noc(cfg);
    SyntheticWorkload workload;
    workload.injectionRate = 0.3;
    workload.packetsPerPe = 20;
    workload.seed = 5;
    SyntheticInjector injector(noc, workload);
    while (!injector.done() && noc.now() < 100000) {
        injector.tick();
        noc.step();
    }
    EXPECT_TRUE(injector.done());
    return hashStats(noc.statsSnapshot());
}

TEST(CandidateTable, SharedAcrossDevicesAndThreads)
{
    // Four threads build devices of every site kind at once, so in a
    // fresh process they race to build the lazily shared tables. Each
    // must route as a device built alone does, and every thread must
    // get the same table for the same site.
    std::vector<NocConfig> configs = {
        NocConfig::hoplite(8),
        NocConfig::fastTrack(8, 2, 2), // all four site kinds
        NocConfig::fastTrack(8, 2, 2, NocVariant::ftInject),
        NocConfig::fastTrack(8, 3, 1),
    };
    NocConfig ablated = NocConfig::fastTrack(8, 2, 2);
    ablated.allowUpgrade = false;
    ablated.allowExpressTurn = false;
    ablated.turnPriority = false;
    configs.push_back(ablated);

    constexpr std::size_t kThreads = 4;
    std::vector<std::vector<std::uint64_t>> hashes(kThreads);
    std::vector<std::vector<const CandidateTable *>> tables(kThreads);
    std::vector<std::thread> threads;
    for (std::size_t t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            for (std::size_t i = 0; i < configs.size(); ++i) {
                // Each thread starts at a different config.
                const NocConfig &cfg = configs[(i + t) % configs.size()];
                hashes[t].push_back(shortRun(cfg));
                const Topology topo(cfg);
                for (std::uint16_t pos = 0; pos < 4; ++pos) {
                    tables[t].push_back(&CandidateTable::forSite(
                        Router::siteFor(topo, {pos, pos})));
                }
            }
        });
    }
    for (std::thread &th : threads)
        th.join();

    for (std::size_t t = 0; t < kThreads; ++t) {
        for (std::size_t i = 0; i < configs.size(); ++i) {
            const std::size_t c = (i + t) % configs.size();
            EXPECT_EQ(hashes[t][i], shortRun(configs[c]))
                << "thread " << t << " config " << c;
            const Topology topo(configs[c]);
            for (std::uint16_t pos = 0; pos < 4; ++pos) {
                EXPECT_EQ(tables[t][i * 4 + pos],
                          &CandidateTable::forSite(
                              Router::siteFor(topo, {pos, pos})));
            }
        }
    }
}

} // namespace
} // namespace fasttrack
