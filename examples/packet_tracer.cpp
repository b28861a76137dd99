/**
 * @file
 * Packet journey tracer: follows individual packets hop by hop
 * through a loaded NoC, printing each router traversal with the lane
 * class taken — the debugging view used to audit the routing policy
 * against the paper (e.g. Fig 8's example trajectory). The hops come
 * from an in-memory telemetry session: the sink's route, express_hop
 * and eject events, read back after every cycle.
 *
 * Run: ./packet_tracer [<N>] [<D>] [<R>] [<src-x> <src-y> <dst-x> <dst-y>]
 */

#include <iostream>
#include <string>
#include <vector>

#include "common/flags.hpp"
#include "common/rng.hpp"
#include "noc/network.hpp"
#include "sim/telemetry_session.hpp"
#include "traffic/trace.hpp"

using namespace fasttrack;

int
main(int argc, char **argv)
{
    const Positionals args{
        argc, argv,
        "[<N>] [<D>] [<R>] [<src-x> <src-y> <dst-x> <dst-y>]"};
    // At least 4, so the default endpoints fit.
    const auto n = args.number<std::uint32_t>(1, "<N>", 8, 4, kMaxTraceSide);
    const auto d = args.number<std::uint32_t>(2, "<D>", 2, 0, n / 2);
    const auto r = args.number<std::uint32_t>(3, "<R>", 1, 1, n / 2);
    // N and D are in range, so only the rules on R can still fail.
    if (d != 0)
        args.check("<R>", NocConfig{.n = n, .d = d, .r = r,
                                    .variant = NocVariant::ftFull}
                              .validationError());
    Coord src{0, 3}, dst{3, 0}; // the paper's Fig 8 example
    if (argc > 7) {
        const auto side = [&](int index, const char *name) {
            return args.number<std::uint16_t>(
                index, name, 0, 0, static_cast<std::uint16_t>(n - 1));
        };
        src = {side(4, "<src-x>"), side(5, "<src-y>")};
        dst = {side(6, "<dst-x>"), side(7, "<dst-y>")};
    }

    const NocConfig cfg = d == 0 ? NocConfig::hoplite(n)
                                 : NocConfig::fastTrack(n, d, r);
    Network noc(cfg);

    // In memory: no directory, so nothing is written. The ring holds
    // every event of a cycle: per router at most four hops, four
    // deflect events, an inject or a stall, and an eject.
    TelemetrySession session({.ringCapacity = std::size_t{10} * cfg.pes()});
    telemetry::ThreadLog &log = session.sink().local();
    std::vector<telemetry::TraceEvent> events;

    constexpr std::uint64_t kTracked = 1;
    std::uint16_t deflections = 0;
    // Step once, then print the tracked packet's hops of that cycle.
    // A hop event carries the deflections so far; the eject event that
    // ends the journey comes after the packet's last hop.
    const auto step = [&] {
        noc.step();
        events.clear();
        log.ring().drain(events);
        for (const telemetry::TraceEvent &e : events) {
            const bool hop = e.kind == telemetry::EventKind::route ||
                             e.kind == telemetry::EventKind::expressHop;
            if (e.packet != kTracked ||
                (!hop && e.kind != telemetry::EventKind::eject))
                continue;
            deflections = hop ? e.aux : deflections;
            std::cout << "  cycle " << e.cycle << ": at "
                      << coordToString(toCoord(e.node, n)) << " -> "
                      << (hop ? "leaves on " : "delivered to client")
                      << (hop ? toString(static_cast<OutPort>(e.port))
                              : "");
            if (deflections)
                std::cout << "   (deflections so far: " << deflections
                          << ")";
            std::cout << "\n";
        }
    };

    // Background load so the traced packet meets real contention.
    Rng rng(99);
    std::uint64_t id = 100;
    auto background = [&] {
        for (NodeId s = 0; s < cfg.pes(); ++s) {
            if (!noc.hasPendingOffer(s) && rng.nextBool(0.25)) {
                Packet p;
                p.id = ++id;
                p.src = s;
                NodeId t = static_cast<NodeId>(
                    rng.nextBelow(cfg.pes() - 1));
                if (t >= s)
                    ++t;
                p.dst = t;
                noc.offer(p);
            }
        }
    };
    for (int warm = 0; warm < 20; ++warm) {
        background();
        step();
    }

    std::cout << cfg.describe() << ": tracing packet "
              << coordToString(src) << " -> " << coordToString(dst)
              << " under 25% background load\n";
    Packet tracked;
    tracked.id = kTracked;
    tracked.src = toNodeId(src, n);
    tracked.dst = toNodeId(dst, n);
    // A background packet may still wait at the source; one offer per
    // node at a time.
    while (noc.hasPendingOffer(tracked.src))
        step();
    // Installed before the offer: a packet addressed to its own source
    // never enters the network and is delivered inside offer(). The
    // summary waits for the cycle's hop lines.
    std::string summary;
    noc.setDeliverCallback([&](const Packet &p, Cycle when) {
        if (p.id != kTracked)
            return;
        summary = detail::concat(
            "delivered after ", when - p.created, " cycles: ",
            p.shortHops, " short + ", p.expressHops, " express hops, ",
            p.deflections, " deflections\n");
    });
    tracked.created = noc.now();
    noc.offer(tracked);

    for (int guard = 0; guard < 10000 && summary.empty(); ++guard) {
        background();
        step();
    }
    std::cout << (summary.empty() ? "packet still in flight after guard!\n"
                                  : summary);
    return summary.empty() ? 1 : 0;
}
