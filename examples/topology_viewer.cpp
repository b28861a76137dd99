/**
 * @file
 * Topology viewer: renders any FT(N^2, D, R) as a Fig 7-style map -
 * router kinds (Black/Grey/White), express-link start columns/rows,
 * wiring bill, and the per-kind resource budget.
 *
 * Run: ./topology_viewer [<N>] [<D>] [<R>] [inject]
 */

#include <cstring>
#include <iostream>

#include "common/flags.hpp"
#include "common/table.hpp"
#include "fpga/area_model.hpp"
#include "noc/topology.hpp"
#include "traffic/trace.hpp"

using namespace fasttrack;

int
main(int argc, char **argv)
{
    const Positionals args{argc, argv, "[<N>] [<D>] [<R>] [inject]"};
    const auto n = args.number<std::uint32_t>(1, "<N>", 8, 2, kMaxTraceSide);
    const auto d = args.number<std::uint32_t>(2, "<D>", 2, 0, n / 2);
    const auto r = args.number<std::uint32_t>(3, "<R>", 2, 1, n / 2);
    const bool inject = argc > 4;
    if (inject && std::strcmp(argv[4], "inject") != 0)
        args.check("[inject]", detail::concat("must be 'inject', got '",
                                              argv[4], "'"));
    const NocVariant variant =
        inject ? NocVariant::ftInject : NocVariant::ftFull;
    if (d != 0) {
        // At R = 1 only the rules on D apply.
        args.check("<D>",
                   NocConfig{.n = n, .d = d, .r = 1, .variant = variant}
                       .validationError());
        args.check("<R>",
                   NocConfig{.n = n, .d = d, .r = r, .variant = variant}
                       .validationError());
    }

    const NocConfig cfg = d == 0 ? NocConfig::hoplite(n)
                                 : NocConfig::fastTrack(n, d, r, variant);
    Topology topo(cfg);

    std::cout << cfg.describe() << " router map "
              << "(#=full express, +=one dimension, .=plain Hoplite)\n\n";
    std::cout << "    ";
    for (std::uint32_t x = 0; x < n; ++x)
        std::cout << (topo.hasExpressX(x) ? "E" : " ");
    std::cout << "   <- columns driving X express links\n";
    for (std::uint32_t y = 0; y < n; ++y) {
        std::cout << (topo.hasExpressY(y) ? "  E " : "    ");
        for (std::uint32_t x = 0; x < n; ++x) {
            switch (topo.kindAt({static_cast<std::uint16_t>(x),
                                 static_cast<std::uint16_t>(y)})) {
              case RouterArch::ftFull:
              case RouterArch::ftInject:
                std::cout << "#";
                break;
              case RouterArch::ftGrey:
                std::cout << "+";
                break;
              default:
                std::cout << ".";
            }
        }
        std::cout << "\n";
    }

    const auto kinds = AreaModel::kindCounts(n, cfg.costD(), r);
    AreaModel area;
    Table table("\nresource budget at 256b");
    table.setHeader({"kind", "count", "LUTs each", "FFs each"});
    const auto full_arch =
        inject ? RouterArch::ftInject : RouterArch::ftFull;
    if (kinds.black) {
        const RouterCost c = area.routerCost(full_arch, 256);
        table.addRow({"Black (both dims)", Table::num(
                          static_cast<std::uint64_t>(kinds.black)),
                      Table::num(static_cast<std::uint64_t>(c.luts)),
                      Table::num(static_cast<std::uint64_t>(c.ffs))});
    }
    if (kinds.grey) {
        const RouterCost c = area.routerCost(RouterArch::ftGrey, 256);
        table.addRow({"Grey (one dim)", Table::num(
                          static_cast<std::uint64_t>(kinds.grey)),
                      Table::num(static_cast<std::uint64_t>(c.luts)),
                      Table::num(static_cast<std::uint64_t>(c.ffs))});
    }
    if (kinds.white) {
        const RouterCost c = area.routerCost(RouterArch::hoplite, 256);
        table.addRow({"White (Hoplite)", Table::num(
                          static_cast<std::uint64_t>(kinds.white)),
                      Table::num(static_cast<std::uint64_t>(c.luts)),
                      Table::num(static_cast<std::uint64_t>(c.ffs))});
    }
    table.print(std::cout);

    const NocCost cost = area.nocCost(cfg.toSpec(256));
    std::cout << "\ntotals: " << cost.luts << " LUTs, " << cost.ffs
              << " FFs, " << topo.tracksPerRing()
              << " tracks/ring (" << cost.wireCount
              << " ring tracks), "
              << Table::num(cost.frequencyMhz, 0) << " MHz\n";
    return 0;
}
