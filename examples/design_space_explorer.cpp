/**
 * @file
 * Design-space exploration: enumerate every legal FastTrack topology
 * (D, R, variant) plus replicated-Hoplite alternatives for one system
 * size, measure saturated throughput, cost them with the FPGA models,
 * and report the LUT-throughput Pareto frontier -- the methodology the
 * paper's Section IV-A proposes for tuning cost vs performance.
 *
 * Run: ./design_space_explorer [<noc-side>] [<datawidth>]
 */

#include <algorithm>
#include <iostream>
#include <limits>
#include <vector>

#include "common/flags.hpp"
#include "common/table.hpp"
#include "fpga/power_model.hpp"
#include "fpga/routability.hpp"
#include "sim/experiment.hpp"

using namespace fasttrack;

namespace {

struct DesignPoint
{
    std::string label;
    NocConfig cfg;
    std::uint32_t channels = 1;
    NocCost cost;
    double rate = 0.0;  ///< pkt/cycle/PE at saturation
    double mpkts = 0.0; ///< wall-clock bandwidth
    double watts = 0.0;
    bool pareto = false;
};

} // namespace

int
main(int argc, char **argv)
{
    const Positionals args{argc, argv, "[<noc-side>] [<datawidth>]"};
    const auto n =
        args.number<std::uint32_t>(1, "<noc-side>", 8, 2, kMaxTraceSide);
    const auto width = args.number<std::uint32_t>(
        2, "<datawidth>", 256, 1, std::numeric_limits<std::uint32_t>::max());

    AreaModel area;
    PowerModel power(area);
    RoutabilityModel routability(area);

    // Enumerate the design space.
    std::vector<DesignPoint> points;
    auto add = [&](std::string label, NocConfig cfg,
                   std::uint32_t channels) {
        DesignPoint p;
        p.label = std::move(label);
        p.cfg = cfg;
        p.channels = channels;
        points.push_back(p);
    };
    for (std::uint32_t ch : {1u, 2u, 3u}) {
        add(ch == 1 ? "Hoplite" : "Hoplite-" + std::to_string(ch) + "x",
            NocConfig::hoplite(n), ch);
    }
    for (std::uint32_t d = 1; d <= n / 2; ++d) {
        for (std::uint32_t r = 1; r <= d; ++r) {
            if (d % r != 0 || (r > 1 && n % r != 0))
                continue;
            add("FT(" + std::to_string(d) + "," + std::to_string(r) +
                    ")", NocConfig::fastTrack(n, d, r), 1);
            if (n % d == 0) {
                add("FTlite(" + std::to_string(d) + "," +
                        std::to_string(r) + ")",
                    NocConfig::fastTrack(n, d, r, NocVariant::ftInject),
                    1);
            }
        }
    }

    std::cout << "Exploring " << points.size() << " designs for a "
              << n << "x" << n << " NoC at " << width << "b...\n\n";

    // Measure and cost every point; drop unroutable ones.
    std::vector<DesignPoint> feasible;
    for (DesignPoint &p : points) {
        const NocSpec spec = p.cfg.toSpec(width, p.channels);
        if (!routability.map(spec).feasible) {
            std::cout << "  (skipping " << p.label
                      << ": does not fit the device)\n";
            continue;
        }
        p.cost = area.nocCost(spec);
        const SynthResult res = saturationRun(
            {p.label, p.cfg, p.channels}, TrafficPattern::random, 512);
        p.rate = res.sustainedRate();
        p.mpkts = p.rate * p.cfg.pes() * p.cost.frequencyMhz;
        p.watts = power.dynamicPowerW(spec);
        feasible.push_back(p);
    }

    // Pareto frontier on (LUTs minimized, Mpkts/s maximized).
    for (DesignPoint &p : feasible) {
        p.pareto = std::none_of(
            feasible.begin(), feasible.end(), [&](const DesignPoint &q) {
                return (q.cost.luts <= p.cost.luts &&
                        q.mpkts > p.mpkts) ||
                       (q.cost.luts < p.cost.luts &&
                        q.mpkts >= p.mpkts);
            });
    }
    std::sort(feasible.begin(), feasible.end(),
              [](const DesignPoint &a, const DesignPoint &b) {
                  return a.cost.luts < b.cost.luts;
              });

    Table table("design space (RANDOM @100% injection); * = on the "
                "LUT-bandwidth Pareto frontier");
    table.setHeader({"design", "LUTs", "wires", "MHz", "W",
                     "rate(pkt/cyc/PE)", "Mpkts/s", "Pareto"});
    for (const DesignPoint &p : feasible) {
        table.addRow({p.label, Table::num(p.cost.luts),
                      Table::num(static_cast<std::uint64_t>(
                          p.cost.wireCount)),
                      Table::num(p.cost.frequencyMhz, 0),
                      Table::num(p.watts, 1), Table::num(p.rate, 4),
                      Table::num(p.mpkts, 0), p.pareto ? "*" : ""});
    }
    table.print(std::cout);
    return 0;
}
