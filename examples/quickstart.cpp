/**
 * @file
 * Quickstart: build a FastTrack NoC and a baseline Hoplite NoC, run
 * the same random workload on both, and compare throughput, latency
 * and FPGA cost -- the library's core loop in ~60 lines.
 *
 * Run: ./quickstart [<N>] [<injection-rate>]
 */

#include <iostream>

#include "common/flags.hpp"
#include "common/table.hpp"
#include "fpga/area_model.hpp"
#include "sim/experiment.hpp"

using namespace fasttrack;

int
main(int argc, char **argv)
{
    const Positionals args{argc, argv, "[<N>] [<injection-rate>]"};
    const auto n = args.number<std::uint32_t>(1, "<N>", 8, 2, kMaxTraceSide);
    const auto rate =
        args.number<double>(2, "<injection-rate>", 1.0, 0.001, 1.0);
    // The lineup's FT(N^2,2,1) and FT(N^2,2,2) must both be buildable.
    for (const std::uint32_t r : {1u, 2u})
        args.check("<N>", NocConfig{.n = n, .d = 2, .r = r,
                                    .variant = NocVariant::ftFull}
                              .validationError());

    std::cout << "FastTrack quickstart: " << n << "x" << n
              << " NoC, RANDOM traffic, injection rate " << rate
              << ", 1K packets/PE\n\n";

    AreaModel area;
    Table table("Hoplite vs FastTrack at a glance");
    table.setHeader({"NoC", "rate(pkt/cyc/PE)", "avg-lat(cyc)",
                     "worst-lat", "deflections", "LUTs", "MHz",
                     "Mpkts/s"});

    for (const NocUnderTest &nut : standardLineup(n)) {
        SyntheticWorkload workload;
        workload.pattern = TrafficPattern::random;
        workload.injectionRate = rate;
        SynthResult res = runSim({.config = &nut.config,
                                  .channels = nut.channels,
                                  .workload = &workload})
                              .synth;

        const NocCost cost =
            area.nocCost(nut.config.toSpec(256, nut.channels));
        const double mpkts = res.sustainedRate() * nut.config.pes() *
                             cost.frequencyMhz;
        table.addRow({nut.label, Table::num(res.sustainedRate(), 4),
                      Table::num(res.avgLatency(), 1),
                      Table::num(res.worstLatency()),
                      Table::num(res.stats.totalDeflections()),
                      Table::num(cost.luts), Table::num(
                          cost.frequencyMhz, 0),
                      Table::num(mpkts, 1)});
    }
    table.print(std::cout);

    std::cout << "\nExpress links let packets skip " << 2
              << " routers per cycle; the FT(64,2,1) row should show "
                 "roughly 2-2.5x the Hoplite sustained rate.\n";
    return 0;
}
