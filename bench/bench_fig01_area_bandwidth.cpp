/**
 * @file
 * Fig 1 reproduction: area-bandwidth tradeoff of FPGA NoC routers.
 * Cost axis: max(LUTs, FFs) per switch at 32b. Bandwidth axis: peak
 * switch bandwidth in packets/ns = (packets/cycle capability) x clock.
 * Prior designs use published numbers; Hoplite and FastTrack peak
 * rates are *measured* from the simulator at 100% RANDOM injection.
 */

#include <iostream>

#include "bench_util.hpp"
#include "fpga/area_model.hpp"
#include "fpga/reference_data.hpp"
#include "noc/input_queued.hpp"
#include "sim/experiment.hpp"

using namespace fasttrack;

namespace {

/** Peak per-switch packets/cycle measured at saturation: sustained
 *  delivery rate plus through-traffic, i.e. link traversals per
 *  router-cycle. */
double
measuredSwitchRate(const NocConfig &cfg)
{
    const SynthResult res =
        saturationRun({cfg.describe(), cfg, 1}, TrafficPattern::random,
                      512);
    const double traversals =
        static_cast<double>(res.stats.shortHopTraversals +
                            res.stats.expressHopTraversals);
    return traversals /
           (static_cast<double>(res.cycles) * cfg.pes());
}

} // namespace

int
main(int argc, char **argv)
{
    bench::parseArgs(argc, argv);
    bench::banner(
        "Fig 1: area-bandwidth tradeoffs of NoC routers on FPGAs",
        "Hoplite/FastTrack sit far left (tiny switches); FastTrack "
        "raises bandwidth at a fraction of buffered-router cost");

    AreaModel area;
    Table table("cost per switch vs peak switch bandwidth");
    table.setHeader({"Design", "cost=max(LUT,FF)", "clock(MHz)",
                     "pkts/cycle", "peak BW (pkts/ns)"});

    for (const RouterReference &ref : priorRouters()) {
        const double mhz = 1000.0 / ref.periodNs;
        const double bw = ref.packetsPerCycle * mhz / 1000.0;
        table.addRow({ref.name,
                      Table::num(static_cast<std::uint64_t>(
                          std::max(ref.luts, ref.ffs))),
                      Table::num(mhz, 0),
                      Table::num(ref.packetsPerCycle, 1),
                      Table::num(bw, 2)});
    }

    struct Ours
    {
        const char *label;
        NocConfig cfg;
    };
    const Ours ours[] = {
        {"Hoplite (sim)", NocConfig::hoplite(8)},
        {"FastTrack FT(64,2,1) (sim)", NocConfig::fastTrack(8, 2, 1)},
        {"FastTrack FT(64,2,2) (sim)", NocConfig::fastTrack(8, 2, 2)},
    };
    for (const Ours &o : ours) {
        const NocSpec spec = o.cfg.toSpec(32);
        const NocCost cost = area.nocCost(spec);
        const double rate = measuredSwitchRate(o.cfg);
        const double bw = rate * cost.frequencyMhz / 1000.0;
        table.addRow({o.label, Table::num(cost.costPerSwitch, 0),
                      Table::num(cost.frequencyMhz, 0),
                      Table::num(rate, 2), Table::num(bw, 2)});
    }

    // Buffered baseline: *measured* switch rate from our CONNECT-class
    // simulator, costed with CONNECT's published LUTs and clock.
    {
        auto noc = InputQueuedNetwork::mesh(8, 16);
        SyntheticWorkload workload;
        workload.pattern = TrafficPattern::random;
        workload.injectionRate = 1.0;
        workload.packetsPerPe = 512;
        const SynthResult res =
            runSim({.device = &noc, .workload = &workload}).synth;
        const double rate =
            static_cast<double>(res.stats.shortHopTraversals) /
            (static_cast<double>(res.cycles) * 64);
        const RouterReference connect = priorRouters()[2];
        const double mhz = 1000.0 / connect.periodNs;
        table.addRow({"CONNECT-class buffered (sim)",
                      Table::num(static_cast<std::uint64_t>(
                          std::max(connect.luts, connect.ffs))),
                      Table::num(mhz, 0), Table::num(rate, 2),
                      Table::num(rate * mhz / 1000.0, 2)});
    }

    // High-performance ASIC-style baseline: 4-VC torus measured with
    // our simulator, costed with OpenSMART's published LUTs and clock.
    {
        auto noc = InputQueuedNetwork::torus(8, 4, 4);
        SyntheticWorkload workload;
        workload.pattern = TrafficPattern::random;
        workload.injectionRate = 1.0;
        workload.packetsPerPe = 512;
        const SynthResult res =
            runSim({.device = &noc, .workload = &workload}).synth;
        const double rate =
            static_cast<double>(res.stats.shortHopTraversals) /
            (static_cast<double>(res.cycles) * 64);
        const RouterReference osmart = priorRouters()[0];
        const double mhz = 1000.0 / osmart.periodNs;
        table.addRow({"OpenSMART-class 4VC torus (sim)",
                      Table::num(static_cast<std::uint64_t>(
                          std::max(osmart.luts, osmart.ffs))),
                      Table::num(mhz, 0), Table::num(rate, 2),
                      Table::num(rate * mhz / 1000.0, 2)});
    }
    table.print(std::cout);
    return 0;
}
