/**
 * @file
 * Link-utilization heatmaps: run a workload and render per-link
 * traversal intensity for each lane class as ASCII grids, showing how
 * express links drain traffic off the short rings.
 *
 * Run: ./noc_heatmap [pattern] [<noc-side>] [<D>] [<R>]
 */

#include <iostream>

#include "common/flags.hpp"
#include "common/table.hpp"
#include "noc/network.hpp"
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

void
printGrid(const Network &noc, OutPort port, const char *title)
{
    const std::uint32_t n = noc.topology().n();
    const auto &links = noc.linkTraversals();
    std::uint64_t peak = 1;
    for (const auto &per_router : links)
        peak = std::max(peak,
                        per_router[static_cast<std::size_t>(port)]);

    std::cout << title << " (peak " << peak << " traversals)\n";
    for (std::uint32_t y = 0; y < n; ++y) {
        std::cout << "  ";
        for (std::uint32_t x = 0; x < n; ++x) {
            const NodeId id = y * n + x;
            const std::uint64_t v =
                links[id][static_cast<std::size_t>(port)];
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
    Network noc(cfg);
    SyntheticInjector injector(noc, workload);
    while (!injector.done()) {
        injector.tick();
        noc.step();
    }

    std::cout << "Link utilization of " << cfg.describe() << " under "
              << pattern_name << " @50% injection ("
              << noc.stats().delivered << " packets, " << noc.now()
              << " cycles)\n\n";
    printGrid(noc, OutPort::eSh, "East short links");
    printGrid(noc, OutPort::sSh, "South short links");
    if (cfg.isFastTrack()) {
        printGrid(noc, OutPort::eEx, "East express links");
        printGrid(noc, OutPort::sEx, "South express links");
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
