/**
 * @file
 * Link-utilization heatmaps: run a workload and render per-link
 * traversal intensity for each lane class as ASCII grids, showing how
 * express links drain traffic off the short rings. The per-link counts
 * come from the telemetry sink, which counts every traversal.
 *
 * Run: ./noc_heatmap [pattern] [<noc-side>] [<D>] [<R>]
 */

#include <iostream>

#include "common/flags.hpp"
#include "common/table.hpp"
#include "noc/network.hpp"
#include "sim/telemetry_session.hpp"
#include "traffic/injector.hpp"
#include "traffic/trace.hpp"

using namespace fasttrack;

namespace {

/** Map a utilization fraction to a density glyph. */
char
glyph(double frac)
{
    static const char ramp[] = " .:-=+*#%@";
    const int idx = std::min(9, static_cast<int>(frac * 10.0));
    return ramp[idx];
}

/** @p links holds the traversals of every link of the n x n torus,
 *  indexed node * kNumOutPorts + OutPort. */
void
printGrid(const std::vector<std::uint64_t> &links, std::uint32_t n,
          OutPort port, const char *title)
{
    const auto at = [&](NodeId id) {
        return links[id * kNumOutPorts + static_cast<std::size_t>(port)];
    };
    std::uint64_t peak = 1;
    for (NodeId id = 0; id < n * n; ++id)
        peak = std::max(peak, at(id));

    std::cout << title << " (peak " << peak << " traversals)\n";
    for (std::uint32_t y = 0; y < n; ++y) {
        std::cout << "  ";
        for (std::uint32_t x = 0; x < n; ++x) {
            const std::uint64_t v = at(y * n + x);
            std::cout << glyph(static_cast<double>(v) /
                               static_cast<double>(peak));
        }
        std::cout << "\n";
    }
    std::cout << "\n";
}

} // namespace

int
main(int argc, char **argv)
{
    const std::string pattern_name = argc > 1 ? argv[1] : "TRANSPOSE";
    const Positionals args{argc, argv,
                           "[pattern] [<noc-side>] [<D>] [<R>]"};
    const auto n =
        args.number<std::uint32_t>(2, "<noc-side>", 8, 2, kMaxTraceSide);
    const auto d = args.number<std::uint32_t>(3, "<D>", 2, 0, n / 2);
    const auto r = args.number<std::uint32_t>(4, "<R>", 1, 1, n / 2);
    // N and D are in range, so only the rules on R can still fail.
    if (d != 0)
        args.check("<R>", NocConfig{.n = n, .d = d, .r = r,
                                    .variant = NocVariant::ftFull}
                              .validationError());

    SyntheticWorkload workload;
    const auto pattern = patternFromString(pattern_name);
    args.check("[pattern]",
               pattern ? patternValidationError(*pattern, n,
                                                workload.localRadius)
                       : detail::concat("unknown traffic pattern '",
                                        pattern_name, "'"));
    workload.pattern = *pattern;
    workload.injectionRate = 0.5;
    workload.packetsPerPe = 512;

    NocConfig cfg = d == 0 ? NocConfig::hoplite(n)
                           : NocConfig::fastTrack(n, d, r);
    // The run needs the sink's link counters, not its event rings.
    TelemetrySession session({.traceEvents = false});
    Network noc(cfg);
    SyntheticInjector injector(noc, workload);
    while (!injector.done()) {
        injector.tick();
        noc.step();
    }
    // The counts reach only as far as the highest link used: read the
    // torus's links, an absent one as 0.
    std::vector<std::uint64_t> links = session.sink().totalLinkCounts();
    links.resize(std::size_t{n} * n * kNumOutPorts);

    std::cout << "Link utilization of " << cfg.describe() << " under "
              << pattern_name << " @50% injection ("
              << noc.stats().delivered << " packets, " << noc.now()
              << " cycles)\n\n";
    printGrid(links, n, OutPort::eSh, "East short links");
    printGrid(links, n, OutPort::sSh, "South short links");
    if (cfg.isFastTrack()) {
        printGrid(links, n, OutPort::eEx, "East express links");
        printGrid(links, n, OutPort::sEx, "South express links");
        const auto &s = noc.stats();
        const double total = static_cast<double>(
            s.shortHopTraversals + s.expressHopTraversals);
        std::cout << "express share of all traversals: "
                  << Table::num(
                         100.0 *
                             static_cast<double>(s.expressHopTraversals) /
                             total, 1)
                  << "%\n";
    }
    return 0;
}
