/**
 * @file
 * Differential test of the cycle engine against a deliberately naive
 * reference model of Hoplite, FT-Full and FTlite-Inject.
 *
 * The reference keeps one object per router with std::optional input
 * registers, and one delay line of std::optional slots per physical
 * link (one slot per cycle of link latency). Every cycle it moves the
 * link heads into the input registers, then arbitrates each router
 * in id order by walking the policy's candidate lists
 * (routeCandidates / injectCandidates) with a std::array<bool, 4> of
 * taken outputs, in DESIGN.md's priority order W_EX > N_EX > W_SH >
 * N_SH > PE (N before W in the ring-first ablation). It computes ring
 * distances with plain division and modulo and shares none of the
 * engine's precomputed tables or its link slab, so a table, lookup or
 * slab bug in Network cannot hide behind the same bug here.
 *
 * Both engines see the same offers, cycle by cycle, and must agree on
 * every cycle's deliveries (in router order), every exit-gate query,
 * every refused offer and the final router counters. Each scenario
 * runs twice: hook-free, then under a telemetry session, whose sink's
 * per-link traversal counts must match the reference's link by link.
 */

#include <gtest/gtest.h>

#include <array>
#include <deque>
#include <functional>
#include <optional>
#include <ostream>
#include <string>
#include <tuple>
#include <vector>

#include "common/rng.hpp"
#include "noc/network.hpp"
#include "noc/routing.hpp"
#include "sim/telemetry_session.hpp"
#include "traffic/pattern.hpp"

#include "legal_configs.hpp"

namespace fasttrack {
namespace {

/** A delivery as the comparison sees it. */
struct Delivery
{
    NodeId node = 0;
    std::uint64_t id = 0;
    std::uint32_t hops = 0;
    std::uint32_t deflections = 0;

    bool operator==(const Delivery &) const = default;
};

std::ostream &
operator<<(std::ostream &os, const Delivery &d)
{
    return os << "{node " << d.node << ", id " << d.id << ", hops "
              << d.hops << ", deflections " << d.deflections << "}";
}

Delivery
deliveryOf(const Packet &p)
{
    return {p.dst, p.id, p.totalHops(), p.deflections};
}

/** Exit permission: (router, packet). */
using GateFn = std::function<bool(NodeId, const Packet &)>;

/** The naive engine (see the file comment). */
class ReferenceNoc
{
  public:
    ReferenceNoc(const NocConfig &cfg, GateFn gate)
        : cfg_(cfg), gate_(std::move(gate)), routers_(cfg.pes())
    {
        const std::uint32_t n = cfg_.n;
        const bool ft = cfg_.isFastTrack();
        for (NodeId id = 0; id < cfg_.pes(); ++id) {
            const std::uint32_t x = id % n;
            const std::uint32_t y = id / n;
            Node &r = routers_[id];
            r.site.n = n;
            r.site.d = ft ? cfg_.d : 0;
            r.site.variant = cfg_.variant;
            r.site.hasEx = ft && x % cfg_.r == 0;
            r.site.hasEy = ft && y % cfg_.r == 0;
            r.site.wrapAligned = ft && n % cfg_.d == 0;
            r.site.allowExpressTurn = cfg_.allowExpressTurn;
            r.site.allowUpgrade = cfg_.allowUpgrade;

            const Cycle short_lat = 1 + cfg_.shortLinkStages;
            const Cycle express_lat = 1 + cfg_.expressLinkStages;
            addLink(r, OutPort::eSh, ((x + 1) % n) + y * n, InPort::wSh,
                    short_lat);
            addLink(r, OutPort::sSh, x + ((y + 1) % n) * n, InPort::nSh,
                    short_lat);
            if (r.site.hasEx) {
                addLink(r, OutPort::eEx, ((x + cfg_.d) % n) + y * n,
                        InPort::wEx, express_lat);
            }
            if (r.site.hasEy) {
                addLink(r, OutPort::sEx, x + ((y + cfg_.d) % n) * n,
                        InPort::nEx, express_lat);
            }
        }
    }

    void offer(const Packet &p)
    {
        ASSERT_FALSE(routers_[p.src].offer) << "double offer";
        routers_[p.src].offer = p;
    }

    bool hasPendingOffer(NodeId node) const
    {
        return routers_[node].offer.has_value();
    }

    /** One cycle; returns its deliveries in router order. */
    std::vector<Delivery> step()
    {
        // Link heads land in the input registers.
        for (Link &link : links_) {
            std::optional<Packet> head = link.line.front();
            link.line.pop_front();
            if (head) {
                auto &slot = routers_[link.to]
                                 .in[static_cast<std::size_t>(link.port)];
                EXPECT_FALSE(slot) << "link register collision";
                slot = *head;
            }
        }

        std::vector<Delivery> delivered;
        std::vector<std::optional<Packet>> sent(links_.size());
        for (NodeId id = 0; id < cfg_.pes(); ++id)
            arbitrate(id, sent, delivered);
        for (std::size_t i = 0; i < links_.size(); ++i)
            links_[i].line.push_back(sent[i]);
        ++now_;
        return delivered;
    }

    const NocStats &stats() const { return stats_; }
    Cycle now() const { return now_; }

    /** Packets that left @p router on @p out so far. */
    std::uint64_t traversals(NodeId router, OutPort out) const
    {
        const int link = routers_[router]
                             .out[static_cast<std::size_t>(out)];
        return link < 0 ? 0 : links_[static_cast<std::size_t>(link)].used;
    }

  private:
    struct Link
    {
        NodeId to = 0;
        InPort port = InPort::wSh;
        /** One slot per cycle of latency; the front lands next. */
        std::deque<std::optional<Packet>> line;
        std::uint64_t used = 0;
    };

    struct Node
    {
        RouterSite site;
        std::array<std::optional<Packet>, 4> in;
        std::optional<Packet> offer;
        /** Outgoing link per OutPort, -1 where the port is absent. */
        std::array<int, kNumOutPorts> out{-1, -1, -1, -1};
    };

    void addLink(Node &from, OutPort out, NodeId to, InPort port,
                 Cycle latency)
    {
        from.out[static_cast<std::size_t>(out)] =
            static_cast<int>(links_.size());
        Link link;
        link.to = to;
        link.port = port;
        link.line.assign(latency, std::nullopt);
        links_.push_back(std::move(link));
    }

    void send(Node &r, OutPort out, Packet p,
              std::vector<std::optional<Packet>> &sent)
    {
        if (isExpress(out)) {
            ++p.expressHops;
            ++stats_.expressHopTraversals;
        } else {
            ++p.shortHops;
            ++stats_.shortHopTraversals;
        }
        const int link = r.out[static_cast<std::size_t>(out)];
        ASSERT_GE(link, 0) << "forward onto a missing link";
        ++links_[static_cast<std::size_t>(link)].used;
        sent[static_cast<std::size_t>(link)] = p;
    }

    void arbitrate(NodeId id, std::vector<std::optional<Packet>> &sent,
                   std::vector<Delivery> &delivered)
    {
        Node &r = routers_[id];
        const std::uint32_t n = cfg_.n;
        const std::uint32_t x = id % n;
        const std::uint32_t y = id / n;
        std::array<bool, 4> taken{};
        bool exit_granted = false;

        static constexpr std::array<InPort, 4> kTurnFirst = {
            InPort::wEx, InPort::nEx, InPort::wSh, InPort::nSh};
        static constexpr std::array<InPort, 4> kRingFirst = {
            InPort::nEx, InPort::wEx, InPort::nSh, InPort::wSh};
        for (InPort in : cfg_.turnPriority ? kTurnFirst : kRingFirst) {
            std::optional<Packet> &slot =
                r.in[static_cast<std::size_t>(in)];
            if (!slot)
                continue;
            Packet p = *slot;
            slot.reset();
            const std::uint32_t dx = (p.dst % n + n - x) % n;
            const std::uint32_t dy = (p.dst / n + n - y) % n;
            const CandidateList cands =
                routeCandidates(r.site, in, dx, dy, p.expressClass);
            const bool want_east = dx > 0;
            const bool want_south = dx == 0 && dy > 0;

            bool placed = false;
            for (std::size_t i = 0; i < cands.size() && !placed; ++i) {
                const Candidate c = cands[i];
                const auto o = static_cast<std::size_t>(c.out);
                if (c.exit) {
                    if (exit_granted || !gate_(id, p)) {
                        ++stats_.exitBlocked;
                        continue;
                    }
                    if (taken[o])
                        continue;
                    taken[o] = true;
                    exit_granted = true;
                    if (i != 0) {
                        ++p.deflections;
                        ++stats_.deflectionsByPort[
                            static_cast<std::size_t>(in)];
                    }
                    EXPECT_EQ(p.dst, id) << "delivery at wrong node";
                    ++stats_.delivered;
                    delivered.push_back(deliveryOf(p));
                    placed = true;
                    continue;
                }
                if (taken[o])
                    continue;
                taken[o] = true;
                if (i != 0) {
                    ++p.deflections;
                    ++stats_.deflectionsByPort[
                        static_cast<std::size_t>(in)];
                    if (isExpress(cands[0].out) && !isExpress(c.out))
                        ++stats_.laneDeflections;
                }
                const bool east =
                    c.out == OutPort::eEx || c.out == OutPort::eSh;
                if (east ? !want_east : !want_south) {
                    ++stats_.misroutesByPort[
                        static_cast<std::size_t>(in)];
                }
                send(r, c.out, p, sent);
                placed = true;
            }
            EXPECT_TRUE(placed) << "router " << id << " dropped a packet";
        }

        if (!r.offer)
            return;
        Packet p = *r.offer;
        p.injected = now_;
        const std::uint32_t dx = (p.dst % n + n - x) % n;
        const std::uint32_t dy = (p.dst / n + n - y) % n;
        bool express = false;
        const CandidateList cands =
            injectCandidates(r.site, dx, dy, express);
        p.expressClass = express;
        for (std::size_t i = 0; i < cands.size(); ++i) {
            const auto o = static_cast<std::size_t>(cands[i].out);
            if (taken[o])
                continue;
            taken[o] = true;
            send(r, cands[i].out, p, sent);
            ++stats_.injected;
            r.offer.reset();
            return;
        }
        ++stats_.injectionBlockedCycles;
    }

    NocConfig cfg_;
    GateFn gate_;
    std::vector<Node> routers_;
    std::vector<Link> links_;
    NocStats stats_;
    Cycle now_ = 0;
};

/** One randomized run of both engines. */
struct Scenario
{
    NocConfig cfg;
    TrafficPattern pattern = TrafficPattern::random;
    double rate = 0.5;
    std::uint32_t packetsPerNode = 0;
    bool gated = false;
    std::uint64_t seed = 0;
};

std::string
describe(const Scenario &s)
{
    std::string out = s.cfg.describe();
    out += " stages=" + std::to_string(s.cfg.shortLinkStages) + "/" +
           std::to_string(s.cfg.expressLinkStages);
    out += " turnPriority=" + std::to_string(s.cfg.turnPriority);
    out += " expressTurn=" + std::to_string(s.cfg.allowExpressTurn);
    out += " upgrade=" + std::to_string(s.cfg.allowUpgrade);
    out += " pattern=";
    out += toString(s.pattern);
    out += " rate=" + std::to_string(s.rate);
    out += " gated=" + std::to_string(s.gated);
    out += " seed=" + std::to_string(s.seed);
    return out;
}

/** Draw the knobs the topology does not fix. */
Scenario
drawScenario(const NocConfig &base, std::uint64_t seed)
{
    Rng rng(seed);
    Scenario s;
    s.cfg = base;
    s.seed = seed;
    s.cfg.shortLinkStages = static_cast<std::uint32_t>(rng.nextBelow(3));
    s.cfg.expressLinkStages =
        static_cast<std::uint32_t>(rng.nextBelow(3));
    s.cfg.turnPriority = rng.nextBool(0.7);
    s.cfg.allowExpressTurn = rng.nextBool(0.7);
    s.cfg.allowUpgrade = rng.nextBool(0.7);
    const bool pow2 = (base.n & (base.n - 1)) == 0;
    do {
        s.pattern = kAllPatterns[rng.nextBelow(4)];
    } while (s.pattern == TrafficPattern::bitComplement && !pow2);
    static constexpr double kRates[] = {0.1, 0.3, 0.6, 1.0};
    s.rate = kRates[rng.nextBelow(4)];
    s.packetsPerNode = 4 + static_cast<std::uint32_t>(rng.nextBelow(12));
    s.gated = rng.nextBool(0.5);
    return s;
}

/** Run @p s on both engines, comparing as the file comment says;
 *  adds the network's counters to @p total. With @p sink, the
 *  installed telemetry sink, also compares its per-link counts. */
::testing::AssertionResult
runBoth(const Scenario &s, NocStats &total,
        const telemetry::TraceSink *sink)
{
    const NocConfig &cfg = s.cfg;
    const std::uint32_t nodes = cfg.pes();

    // The gate refuses a deterministic third of (cycle, node) pairs
    // and logs every query, so the two engines must ask it about the
    // same packets in the same order.
    Cycle now = 0;
    using Query = std::tuple<NodeId, std::uint64_t>;
    std::vector<Query> net_queries;
    std::vector<Query> ref_queries;
    const auto gateFor = [&](std::vector<Query> &log) {
        return [&now, &log](NodeId node, const Packet &p) {
            log.emplace_back(node, p.id);
            return (now + node) % 3 != 0;
        };
    };

    Network net(cfg);
    ReferenceNoc ref(cfg, s.gated ? GateFn(gateFor(ref_queries))
                                  : GateFn([](NodeId, const Packet &) {
                                        return true;
                                    }));
    if (s.gated)
        net.setExitGate(gateFor(net_queries));
    std::vector<Delivery> net_delivered;
    net.setDeliverCallback([&](const Packet &p, Cycle) {
        net_delivered.push_back(deliveryOf(p));
    });

    const DestinationGenerator dests(s.pattern, cfg.n);
    Rng rng(s.seed ^ 0x5eedull);
    std::vector<std::uint32_t> budget(nodes, s.packetsPerNode);
    std::uint64_t next_id = 1;
    const Cycle limit = 3000;

    for (; now < limit; ++now) {
        for (NodeId node = 0; node < nodes; ++node) {
            if (net.hasPendingOffer(node) != ref.hasPendingOffer(node)) {
                return ::testing::AssertionFailure()
                       << "cycle " << now << ": node " << node
                       << " offer pending differs (network "
                       << net.hasPendingOffer(node) << ")";
            }
            if (net.hasPendingOffer(node) || budget[node] == 0 ||
                !rng.nextBool(s.rate)) {
                continue;
            }
            --budget[node];
            const NodeId dst = dests.dest(node, rng);
            if (dst == node)
                continue; // transpose diagonal: never enters the NoC
            Packet p;
            p.id = next_id++;
            p.src = node;
            p.dst = dst;
            p.created = now;
            net.offer(p);
            ref.offer(p);
        }

        net_delivered.clear();
        net_queries.clear();
        ref_queries.clear();
        net.step();
        const std::vector<Delivery> ref_delivered = ref.step();
        if (net_delivered != ref_delivered) {
            auto failure = ::testing::AssertionFailure()
                           << "cycle " << now << ": deliveries differ";
            for (const Delivery &d : net_delivered)
                failure << "\n  network   " << d;
            for (const Delivery &d : ref_delivered)
                failure << "\n  reference " << d;
            return failure;
        }
        if (net_queries != ref_queries) {
            return ::testing::AssertionFailure()
                   << "cycle " << now << ": exit-gate queries differ ("
                   << net_queries.size() << " vs "
                   << ref_queries.size() << ")";
        }

        bool budget_left = false;
        for (std::uint32_t b : budget)
            budget_left = budget_left || b > 0;
        if (!budget_left && net.quiescent())
            break;
    }
    if (net.now() != ref.now())
        return ::testing::AssertionFailure() << "cycle counts differ";

    const NocStats &a = net.stats();
    const NocStats &b = ref.stats();
    total.merge(a);
    struct Count
    {
        std::string name;
        std::uint64_t network;
        std::uint64_t reference;
    };
    std::vector<Count> counts = {
        {"injected", a.injected, b.injected},
        {"delivered", a.delivered, b.delivered},
        {"shortHopTraversals", a.shortHopTraversals, b.shortHopTraversals},
        {"expressHopTraversals", a.expressHopTraversals,
         b.expressHopTraversals},
        {"laneDeflections", a.laneDeflections, b.laneDeflections},
        {"exitBlocked", a.exitBlocked, b.exitBlocked},
        {"injectionBlockedCycles", a.injectionBlockedCycles,
         b.injectionBlockedCycles},
    };
    for (std::size_t in = 0; in < kNumInPorts; ++in) {
        const std::string port = "[" + std::to_string(in) + "]";
        counts.push_back({"deflectionsByPort" + port,
                          a.deflectionsByPort[in], b.deflectionsByPort[in]});
        counts.push_back({"misroutesByPort" + port, a.misroutesByPort[in],
                          b.misroutesByPort[in]});
    }
    if (sink) {
        // Indexed node * 4 + OutPort, as far as the highest link used.
        std::vector<std::uint64_t> links = sink->totalLinkCounts();
        links.resize(std::size_t{nodes} * kNumOutPorts);
        for (NodeId id = 0; id < nodes; ++id) {
            for (std::size_t out = 0; out < kNumOutPorts; ++out) {
                counts.push_back(
                    {"sink links[" + std::to_string(id) + "][" +
                         std::to_string(out) + "]",
                     links[id * kNumOutPorts + out],
                     ref.traversals(id, static_cast<OutPort>(out))});
            }
        }
    }
    for (const Count &c : counts) {
        if (c.network != c.reference) {
            return ::testing::AssertionFailure()
                   << c.name << ": network " << c.network
                   << ", reference " << c.reference;
        }
    }
    return ::testing::AssertionSuccess();
}

TEST(ReferenceRouter, MatchesNetworkCycleByCycle)
{
    std::vector<NocConfig> configs;
    for (std::uint32_t n = 2; n <= 8; ++n) {
        for (const NocConfig &cfg : legalTopologies(n))
            configs.push_back(cfg);
    }
    // Hoplite, 22 FT-Full and 18 FTlite-Inject topologies.
    EXPECT_EQ(configs.size(), 47u);
    std::uint64_t seed = 2024;
    NocStats total;
    for (const NocConfig &base : configs) {
        // Two draws per topology: link stages, pattern, rate, the
        // three policy flags and the exit gate vary between them.
        for (int draw = 0; draw < 2; ++draw) {
            const Scenario s = drawScenario(base, seed++);
            ASSERT_TRUE(runBoth(s, total, nullptr)) << describe(s);
            // The sink is process-global, so the observed run cannot
            // share the hook-free run's stepping loop.
            TelemetrySession session({.traceEvents = false});
            ASSERT_TRUE(runBoth(s, total, &session.sink()))
                << describe(s) << " under telemetry";
        }
    }
    // The runs reach every accounting path they compare.
    EXPECT_GT(total.delivered, 10000u);
    EXPECT_GT(total.expressHopTraversals, 0u);
    EXPECT_GT(total.exitBlocked, 0u);
    EXPECT_GT(total.laneDeflections, 0u);
    EXPECT_GT(total.injectionBlockedCycles, 0u);
    for (std::size_t in = 0; in < 4; ++in) {
        EXPECT_GT(total.deflectionsByPort[in], 0u) << "port " << in;
        EXPECT_GT(total.misroutesByPort[in], 0u) << "port " << in;
    }
}

} // namespace
} // namespace fasttrack
