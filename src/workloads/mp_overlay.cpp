#include "workloads/mp_overlay.hpp"

#include <algorithm>

#include "common/logging.hpp"
#include "common/rng.hpp"
#include "common/types.hpp"

namespace fasttrack {

Trace
mpOverlayTrace(const ParsecBenchmark &bench, std::uint32_t n,
               std::uint32_t active_pes)
{
    FT_ASSERT(n >= 2 && n <= kMaxTraceSide, "NoC side ", n,
              " is outside [2, ", kMaxTraceSide, "]");
    const std::uint32_t pes = n * n;
    FT_ASSERT(active_pes >= 2 && active_pes <= pes,
              "active PEs must fit the NoC");
    Rng rng(bench.seed);

    // Hubs are spread across the active set.
    std::vector<NodeId> hubs;
    for (std::uint32_t h = 0; h < bench.hubCount; ++h)
        hubs.push_back((h * active_pes) / bench.hubCount);

    struct Pending
    {
        Cycle when;
        NodeId src;
        NodeId dst;
    };
    std::vector<Pending> events;
    events.reserve(static_cast<std::size_t>(active_pes) *
                   bench.msgsPerPe);

    for (NodeId pe = 0; pe < active_pes; ++pe) {
        Cycle t = rng.nextBelow(
            static_cast<std::uint64_t>(bench.computeGap) + 1);
        std::uint32_t sent = 0;
        while (sent < bench.msgsPerPe) {
            const std::uint32_t burst =
                std::min(bench.burstLen, bench.msgsPerPe - sent);
            for (std::uint32_t b = 0; b < burst; ++b) {
                NodeId dst;
                const double p = rng.nextDouble();
                if (p < bench.localFraction) {
                    // Forward ring neighbour (dx + dy <= 2).
                    const Coord s = toCoord(pe, n);
                    const std::uint32_t dx =
                        static_cast<std::uint32_t>(rng.nextBelow(3));
                    const std::uint32_t dy = dx == 0
                        ? 1 + static_cast<std::uint32_t>(rng.nextBelow(2))
                        : static_cast<std::uint32_t>(
                              rng.nextBelow(3 - dx));
                    dst = toNodeId(
                        Coord{static_cast<std::uint16_t>((s.x + dx) % n),
                              static_cast<std::uint16_t>((s.y + dy) % n)},
                        n);
                    // Workers only: a neighbour that falls on an idle
                    // PE redirects to a random worker instead.
                    if (dst >= active_pes) {
                        dst = static_cast<NodeId>(
                            rng.nextBelow(active_pes));
                    }
                } else if (p < bench.localFraction + bench.hubFraction) {
                    dst = hubs[rng.nextBelow(hubs.size())];
                } else {
                    dst = static_cast<NodeId>(
                        rng.nextBelow(active_pes));
                }
                events.push_back({t, pe, dst});
                ++sent;
            }
            // Geometric-ish compute gap before the next burst.
            t += 1 + static_cast<Cycle>(
                     bench.computeGap * (0.5 + rng.nextDouble()));
        }
    }

    std::stable_sort(events.begin(), events.end(),
                     [](const Pending &a, const Pending &b) {
                         return a.when < b.when;
                     });

    Trace trace;
    trace.name = "parsec:" + bench.name;
    trace.n = n;
    trace.reserve(events.size(), 0);
    for (const Pending &e : events)
        trace.add({.src = e.src, .dst = e.dst, .earliest = e.when});
    trace.validate();
    return trace;
}

const std::vector<ParsecBenchmark> &
parsecCatalog()
{
    // Comm intensity and locality per benchmark: pipeline codes (x264,
    // vips, dedup) are bursty and hub/neighbour heavy; freqmine and
    // blackscholes barely talk, so a faster NoC buys them little.
    static const std::vector<ParsecBenchmark> catalog = {
        {"blackscholes", 512, 40.0, 2, 0.50, 0.10, 1, 61},
        {"dedup", 2048, 4.0, 6, 0.15, 0.45, 4, 62},
        {"fluidanimate", 1536, 8.0, 4, 0.65, 0.05, 2, 63},
        {"freqmine", 768, 32.0, 2, 0.70, 0.10, 2, 64},
        {"vips", 2048, 5.0, 6, 0.25, 0.35, 4, 65},
        {"x264", 2560, 3.0, 8, 0.35, 0.20, 3, 66},
    };
    return catalog;
}

} // namespace fasttrack
