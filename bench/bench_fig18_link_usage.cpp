/**
 * @file
 * Fig 18 reproduction: short vs express link traversals (a) and
 * per-input-port deflection counts (b) for a 64-PE NoC under RANDOM
 * traffic. Express links should *reduce* total deflections.
 *
 * Table (a) is sourced from the telemetry metrics registry (one
 * TelemetrySession per lineup entry): the registry's events.route /
 * events.expressHop counters are the sink's independent count of the
 * same traversals NocStats tallies, and tests/test_telemetry.cpp pins
 * the two paths to agree. With --telemetry-dir the session also
 * exports Chrome traces, link heatmaps and metrics CSVs per config.
 */

#include <iostream>

#include "bench_util.hpp"
#include "sim/experiment.hpp"
#include "sim/telemetry_session.hpp"

using namespace fasttrack;

int
main(int argc, char **argv)
{
    bench::parseArgs(argc, argv, bench::telemetryFlags());
    bench::banner(
        "Fig 18: link usage and deflections, 64 PEs, RANDOM",
        "more express hops and fewer short hops as depopulation "
        "decreases; West-input deflections drop ~25% vs Hoplite");

    const auto lineup = standardLineup(8);
    // Same order as the paper's bars: Hoplite, FT(64,2,2), FT(64,2,1).
    std::vector<NocUnderTest> ordered{lineup[2], lineup[1], lineup[0]};

    std::vector<SynthResult> results;
    std::vector<std::uint64_t> shortHops;
    std::vector<std::uint64_t> expressHops;
    std::vector<std::string> artifacts;
    for (const auto &nut : ordered) {
        telemetry::TelemetryConfig tcfg;
        tcfg.dir = bench::harnessFlags().telemetryDir;
        tcfg.epoch = bench::harnessFlags().telemetryEpoch;
        tcfg.filePrefix = bench::fileSafeLabel(nut.label) + "_";
        TelemetrySession session(std::move(tcfg));

        SyntheticWorkload workload;
        workload.pattern = TrafficPattern::random;
        workload.injectionRate = 0.5;
        const SimConfig sim{.telemetry = &session};
        results.push_back(
            runSynthetic(nut.config, nut.channels, workload, sim));

        // Link-class usage from the registry, not NocStats: route
        // events are short-wire traversals, expressHop events express-
        // wire traversals.
        shortHops.push_back(
            session.metrics().counterValue("events.route"));
        expressHops.push_back(
            session.metrics().counterValue("events.express_hop"));
        for (const std::string &p : session.finish())
            artifacts.push_back(p);
    }

    Table usage("(a) link traversals by class (telemetry registry)");
    usage.setHeader({"NoC", "short hops", "express hops",
                     "express share %"});
    for (std::size_t i = 0; i < ordered.size(); ++i) {
        const double total =
            static_cast<double>(shortHops[i] + expressHops[i]);
        usage.addRow({ordered[i].label, Table::num(shortHops[i]),
                      Table::num(expressHops[i]),
                      Table::num(total ? 100.0 *
                                             static_cast<double>(
                                                 expressHops[i]) /
                                             total
                                       : 0.0, 1)});
    }
    usage.print(std::cout);

    Table defl("(b) misroutes by input port (packets sent in a "
               "non-DOR direction)");
    defl.setHeader({"NoC", "W_EX", "N_EX", "W_SH", "N_SH", "total",
                    "lane-only downgrades"});
    for (std::size_t i = 0; i < ordered.size(); ++i) {
        const auto &s = results[i].stats;
        defl.addRow({ordered[i].label,
                     Table::num(s.misroutesByPort[0]),
                     Table::num(s.misroutesByPort[1]),
                     Table::num(s.misroutesByPort[2]),
                     Table::num(s.misroutesByPort[3]),
                     Table::num(s.totalMisroutes()),
                     Table::num(s.laneDeflections)});
    }
    std::cout << "\n";
    defl.print(std::cout);

    if (!artifacts.empty() && !Table::csvMode()) {
        std::cout << "\n# telemetry artifacts:\n";
        for (const std::string &p : artifacts)
            std::cout << "#   " << p << "\n";
    }
    return 0;
}
