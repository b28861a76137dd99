/**
 * @file
 * Fig 10 reproduction: peak feasible NoC datawidth and achievable
 * frequency across system sizes and express configurations. NA cells
 * did not fit the device (wiring or logic), matching the paper's
 * black cells.
 */

#include <iostream>

#include "bench_util.hpp"
#include "fpga/routability.hpp"
#include "noc/config.hpp"

using namespace fasttrack;

int
main(int argc, char **argv)
{
    bench::parseArgs(argc, argv);
    bench::banner(
        "Fig 10: peak frequency (MHz) of NoCs by datawidth; NA = does "
        "not fit",
        "4x4 D=2 supports 512b (a full x86 cacheline per packet); "
        "wiring capacity shrinks with N and with D/R+1 tracks");

    AreaModel area;
    RoutabilityModel routability(area);

    struct Column
    {
        std::uint32_t n;
        std::uint32_t d; ///< 0 = Hoplite
    };
    const Column cols[] = {{4, 0}, {4, 1}, {4, 2}, {8, 0}, {8, 1},
                           {8, 2}, {8, 4}, {16, 1}, {16, 2}};

    Table table("rows: datawidth; columns: <PEs, D> (D=0 is Hoplite)");
    std::vector<std::string> header{"width"};
    for (const Column &c : cols) {
        // Appended piecewise: a "lit" + std::string chain trips GCC
        // 12's -Wrestrict false positive in Release builds.
        std::string label = "<";
        label += std::to_string(c.n * c.n);
        label += ',';
        label += std::to_string(c.d);
        label += '>';
        header.push_back(label);
    }
    table.setHeader(header);

    for (std::uint32_t w : RoutabilityModel::datawidthSweep()) {
        std::vector<std::string> row{std::to_string(w)};
        for (const Column &c : cols) {
            const NocConfig cfg = c.d == 0
                ? NocConfig::hoplite(c.n)
                : NocConfig::fastTrack(c.n, c.d, 1);
            const MappingResult res = routability.map(cfg.toSpec(w));
            row.push_back(res.feasible
                              ? Table::num(res.frequencyMhz, 0)
                              : Table::na());
        }
        table.addRow(row);
    }
    table.print(std::cout);

    for (const Column &c : {Column{4, 2}, Column{8, 2}, Column{16, 2}}) {
        const NocConfig cfg = NocConfig::fastTrack(c.n, c.d, 1);
        const auto peak = routability.peakDatawidth(cfg.toSpec(8));
        std::cout << "\npeak feasible width for FT(" << c.n * c.n
                  << ",2,1): "
                  << (peak ? std::to_string(*peak) + "b" : "none");
    }
    std::cout << "\n";
    return 0;
}
