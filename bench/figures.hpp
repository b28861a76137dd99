/**
 * @file
 * The synthetic paper figures (Figs 11-14, 16 and 17), each declared
 * once as a plan: the run points it needs plus the step that renders
 * their results as its tables and charts. Each bench_figNN runs its
 * own plan; bench_all runs the union of its five plans as one
 * executor batch (runPoints, sim/sweep_cache.hpp) and then renders
 * them in order, so a point two figures share runs once.
 */

#ifndef FT_BENCH_FIGURES_HPP
#define FT_BENCH_FIGURES_HPP

#include <algorithm>
#include <cstdint>
#include <functional>
#include <iostream>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/ascii_chart.hpp"
#include "common/table.hpp"
#include "fpga/area_model.hpp"
#include "sim/experiment.hpp"
#include "sim/sweep_cache.hpp"

namespace fasttrack::bench {

/** A figure: its run points, and the step that renders their results,
 *  handed over in point order. */
struct Plan
{
    std::vector<RunPoint> points;
    std::function<void(const SynthResult *)> render;
};

/** Run the points of every plan as one executor batch, then render
 *  each plan in order. */
inline void
runPlans(const std::vector<Plan> &plans)
{
    std::vector<RunPoint> points;
    for (const Plan &plan : plans)
        points.insert(points.end(), plan.points.begin(),
                      plan.points.end());
    const std::vector<SynthResult> results = runPoints(points);
    const SynthResult *next = results.data();
    for (const Plan &plan : plans) {
        plan.render(next);
        next += plan.points.size();
    }
}

/** What the figures' grids span: the paper's full grid by default,
 *  which bench_all --smoke shrinks. */
struct Grid
{
    std::vector<TrafficPattern> patterns{std::begin(kAllPatterns),
                                         std::end(kAllPatterns)};
    std::vector<double> rates = injectionRateGrid();
    /** Closed-workload budget; sides of 16 and up run a quarter. */
    std::uint32_t packetsPerPe = 1024;
    /** NoC sides of Figs 13 and 17. */
    std::vector<std::uint32_t> sides{4, 8, 16};
    /** Injection rate of Fig 16's latency summary. */
    double histRate = 0.08;

    std::uint32_t packetsAt(std::uint32_t n) const
    {
        return n >= 16 ? packetsPerPe / 4 : packetsPerPe;
    }
};

/** A table column per lineup entry: each result's @p of, printed
 *  with @p digits digits, headed by the label plus @p suffix. */
struct Metric
{
    std::string suffix;
    double (SynthResult::*of)() const;
    int digits;
};

inline const Metric kRate{"", &SynthResult::sustainedRate, 4};
inline const Metric kLatency{"", &SynthResult::avgLatency, 1};

/** An ASCII chart of a sweep's first metric against injection rate
 *  (log x), titled "<PATTERN> (@p caption)". */
struct Chart
{
    std::string caption;
    bool logY = false;
    std::string yLabel;
};

/** One lineup swept over the injection rates under one pattern. It
 *  renders one table per (title, metrics) entry, one row per rate,
 *  then its chart, if any, unless --csv is on. */
struct Sweep
{
    std::vector<NocUnderTest> lineup;
    TrafficPattern pattern = TrafficPattern::random;
    std::uint32_t packetsPerPe = 1024;
    std::vector<std::pair<std::string, std::vector<Metric>>> tables;
    std::optional<Chart> chart;
};

/** The plan of @p sweeps over @p rates: injectionSweep's points for
 *  each lineup entry, rendered sweep by sweep. */
inline Plan
sweepPlan(std::vector<Sweep> sweeps, std::vector<double> rates)
{
    Plan plan;
    for (const Sweep &sweep : sweeps) {
        for (const NocUnderTest &nut : sweep.lineup) {
            const std::vector<RunPoint> points = sweepPoints(
                nut, sweep.pattern, rates, sweep.packetsPerPe);
            plan.points.insert(plan.points.end(), points.begin(),
                               points.end());
        }
    }
    plan.render = [sweeps = std::move(sweeps),
                   rates = std::move(rates)](const SynthResult *results) {
        for (const Sweep &sweep : sweeps) {
            // Lineup entry c's result at rate r.
            const auto at = [&](std::size_t c,
                                std::size_t r) -> const SynthResult & {
                return results[c * rates.size() + r];
            };
            for (const auto &[title, metrics] : sweep.tables) {
                Table table(title);
                std::vector<std::string> header{"inj-rate"};
                for (const Metric &m : metrics)
                    for (const NocUnderTest &nut : sweep.lineup)
                        header.push_back(nut.label + m.suffix);
                table.setHeader(header);
                for (std::size_t r = 0; r < rates.size(); ++r) {
                    std::vector<std::string> row{Table::num(rates[r], 2)};
                    for (const Metric &m : metrics)
                        for (std::size_t c = 0; c < sweep.lineup.size();
                             ++c)
                            row.push_back(
                                Table::num((at(c, r).*m.of)(), m.digits));
                    table.addRow(row);
                }
                table.print(std::cout);
                std::cout << "\n";
            }
            if (sweep.chart && !Table::csvMode()) {
                const Metric &m = sweep.tables.front().second.front();
                AsciiChart chart(std::string(toString(sweep.pattern)) +
                                 " (" + sweep.chart->caption + ")");
                chart.setLogX(true);
                chart.setLogY(sweep.chart->logY);
                chart.setAxisLabels("injection rate", sweep.chart->yLabel);
                for (std::size_t c = 0; c < sweep.lineup.size(); ++c) {
                    std::vector<std::pair<double, double>> pts;
                    for (std::size_t r = 0; r < rates.size(); ++r)
                        pts.emplace_back(rates[r], (at(c, r).*m.of)());
                    chart.addSeries(sweep.lineup[c].label, std::move(pts));
                }
                chart.print(std::cout);
                std::cout << "\n";
            }
            results += sweep.lineup.size() * rates.size();
        }
    };
    return plan;
}

/**
 * Figs 11 and 12: for each pattern of @p grid, standardLineup(8) swept
 * over its rates, in the table "<PATTERN>: @p what by injection rate"
 * and, given one, @p chart.
 */
inline Plan
rateSweeps(const Grid &grid, const std::string &what,
           const std::vector<Metric> &metrics,
           const std::optional<Chart> &chart = std::nullopt)
{
    std::vector<Sweep> sweeps;
    for (TrafficPattern pattern : grid.patterns)
        sweeps.push_back({standardLineup(8), pattern, grid.packetsPerPe,
                          {{std::string(toString(pattern)) + ": " + what +
                                " by injection rate",
                            metrics}},
                          chart});
    return sweepPlan(std::move(sweeps), grid.rates);
}

/** Fig 13: for each side of @p grid, isoWiringLineup(n) swept under
 *  RANDOM, in a sustained-rate and an average-latency table. */
inline Plan
isoWiringSweeps(const Grid &grid)
{
    std::vector<Sweep> sweeps;
    for (std::uint32_t n : grid.sides) {
        const std::string pes = std::to_string(n * n) + " PEs: ";
        sweeps.push_back(
            {isoWiringLineup(n), TrafficPattern::random, grid.packetsAt(n),
             {{pes + "sustained rate (pkt/cycle/PE)", {kRate}},
              {pes + "average latency (cycles)", {kLatency}}},
             std::nullopt});
    }
    return sweepPlan(std::move(sweeps), grid.rates);
}

/** Fig 13 in brief: isoWiringLineup(8) swept under RANDOM, in one
 *  sustained-rate table. */
inline Plan
isoWiringTable(const Grid &grid)
{
    return sweepPlan({{isoWiringLineup(8),
                       TrafficPattern::random,
                       grid.packetsPerPe,
                       {{"iso-wiring lineup: sustained rate by injection "
                         "rate (RANDOM)",
                         {kRate}}},
                       std::nullopt}},
                     grid.rates);
}

/** Fig 14 in brief: saturation throughput of isoWiringLineup(8), one
 *  row per pattern of @p grid. */
inline Plan
saturationTable(const Grid &grid)
{
    const std::vector<NocUnderTest> lineup = isoWiringLineup(8);
    Plan plan;
    for (TrafficPattern pattern : grid.patterns)
        for (const NocUnderTest &nut : lineup)
            plan.points.push_back(
                saturationPoint(nut, pattern, grid.packetsPerPe));
    plan.render = [patterns = grid.patterns,
                   lineup](const SynthResult *results) {
        Table table("saturation throughput (pkt/cycle/PE) at 100% offered "
                    "load");
        std::vector<std::string> header{"pattern"};
        for (const NocUnderTest &nut : lineup)
            header.push_back(nut.label);
        table.setHeader(header);
        for (TrafficPattern pattern : patterns) {
            std::vector<std::string> row{std::string(toString(pattern))};
            for (std::size_t c = 0; c < lineup.size(); ++c)
                row.push_back(Table::num((results++)->sustainedRate(), 4));
            table.addRow(row);
        }
        table.print(std::cout);
        std::cout << "\n";
    };
    return plan;
}

/** Fig 14: logic area, wire count and clock against saturation
 *  throughput under RANDOM, for isoWiringLineup(8) plus Hoplite-2x. */
inline Plan
costThroughput()
{
    std::vector<NocUnderTest> lineup = isoWiringLineup(8);
    lineup.push_back({"Hoplite-2x", NocConfig::hoplite(8), 2});
    Plan plan;
    for (const NocUnderTest &nut : lineup)
        plan.points.push_back(saturationPoint(nut, TrafficPattern::random));
    plan.render = [lineup](const SynthResult *results) {
        AreaModel area;
        Table table("cost vs throughput (256b datapath)");
        table.setHeader({"NoC", "LUTs", "wire-count", "MHz",
                         "rate(pkt/cyc/PE)", "Mpkts/s"});
        for (const NocUnderTest &nut : lineup) {
            const SynthResult &res = *results++;
            const NocCost cost =
                area.nocCost(nut.config.toSpec(256, nut.channels));
            const double mpkts = res.sustainedRate() * nut.config.pes() *
                                 cost.frequencyMhz;
            table.addRow({nut.label, Table::num(cost.luts),
                          Table::num(static_cast<std::uint64_t>(
                              cost.wireCount)),
                          Table::num(cost.frequencyMhz, 0),
                          Table::num(res.sustainedRate(), 4),
                          Table::num(mpkts, 1)});
        }
        table.print(std::cout);
        std::cout << "\nnote: FT(64,2,1) and Hoplite-3x use the same 48 "
                     "ring tracks; FT(64,2,2) matches Hoplite-2x at 32.\n";
    };
    return plan;
}

/** The points of @p lineup under RANDOM at @p rate. */
inline std::vector<RunPoint>
randomPoints(const std::vector<NocUnderTest> &lineup, double rate,
             std::uint32_t packets_per_pe)
{
    std::vector<RunPoint> points;
    for (const NocUnderTest &nut : lineup) {
        RunPoint point{nut.config, nut.channels};
        point.workload.pattern = TrafficPattern::random;
        point.workload.injectionRate = rate;
        point.workload.packetsPerPe = packets_per_pe;
        points.push_back(point);
    }
    return points;
}

/** Print the latency summary (mean, p50, p99, worst) of one result per
 *  lineup entry. */
inline void
printLatencySummary(const std::string &title,
                    const std::vector<NocUnderTest> &lineup,
                    const SynthResult *results)
{
    Table table(title);
    table.setHeader({"NoC", "mean", "p50", "p99", "worst"});
    for (std::size_t i = 0; i < lineup.size(); ++i) {
        const auto &h = results[i].stats.totalLatency;
        table.addRow({lineup[i].label, Table::num(h.mean(), 1),
                      Table::num(h.percentile(50)),
                      Table::num(h.percentile(99)), Table::num(h.max())});
    }
    table.print(std::cout);
}

/** Fig 16 in brief: the latency summary of standardLineup(8) under
 *  RANDOM at @p grid's histRate. */
inline Plan
latencySummary(const Grid &grid)
{
    const std::vector<NocUnderTest> lineup = standardLineup(8);
    const std::string title = "latency summary (cycles), RANDOM @ " +
                              Table::num(grid.histRate, 2) + " injection";
    return {randomPoints(lineup, grid.histRate, grid.packetsPerPe),
            [lineup, title](const SynthResult *results) {
                printLatencySummary(title, lineup, results);
                std::cout << "\n";
            }};
}

/** Fig 16: the latency histogram of standardLineup(8) under RANDOM at
 *  8% injection, its summary, and the summary at 30%, where Hoplite is
 *  past saturation but both FastTrack NoCs still have headroom (the
 *  paper's big tail gaps develop as the baseline saturates). */
inline Plan
latencyHistogram()
{
    const std::vector<NocUnderTest> lineup = standardLineup(8);
    std::vector<RunPoint> points = randomPoints(lineup, 0.08, 1024);
    const std::vector<RunPoint> loaded = randomPoints(lineup, 0.30, 1024);
    points.insert(points.end(), loaded.begin(), loaded.end());
    return {points, [lineup](const SynthResult *results) {
        Table table("percentage of packets per log2 latency bucket");
        std::vector<std::string> header{"latency<"};
        for (const NocUnderTest &nut : lineup)
            header.push_back(nut.label);
        table.setHeader(header);

        // Common bucket grid across the histograms.
        std::uint64_t max_bound = 1;
        for (std::size_t i = 0; i < lineup.size(); ++i)
            while (max_bound <= results[i].worstLatency())
                max_bound *= 2;
        for (std::uint64_t bound = 2; bound <= max_bound; bound *= 2) {
            std::vector<std::string> row{std::to_string(bound)};
            for (std::size_t i = 0; i < lineup.size(); ++i) {
                const auto &h = results[i].stats.totalLatency;
                std::uint64_t count = 0;
                for (const auto &[value, c] : h.bins())
                    if (value >= bound / 2 && value < bound)
                        count += c;
                const double pct = 100.0 * static_cast<double>(count) /
                                   static_cast<double>(h.count());
                row.push_back(count ? Table::num(pct, 2) : ".");
            }
            table.addRow(row);
        }
        table.print(std::cout);
        std::cout << "\n";
        printLatencySummary("latency summary (cycles) at 8% injection",
                            lineup, results);
        std::cout << "\n";
        printLatencySummary("latency summary (cycles) at 30% injection "
                            "(Hoplite past saturation)",
                            lineup, results + lineup.size());
    }};
}

/**
 * Fig 17: sustained rate of RANDOM traffic at 50% injection against
 * express length D, one column per side of @p grid; fully populated
 * (R=1), then fully depopulated (R=D). D runs to half the largest
 * side; @p prefix leads each table title.
 */
inline Plan
varyD(const Grid &grid, const std::string &prefix)
{
    const std::uint32_t max_d =
        *std::max_element(grid.sides.begin(), grid.sides.end()) / 2;
    Plan plan;
    // Cells in table order: whether each has a point, or prints NA
    // (D too long for the ring, or a depopulated braid that cannot
    // close across the wraparound: R must divide N).
    std::vector<bool> cells;
    for (bool depopulated : {false, true}) {
        for (std::uint32_t d = 0; d <= max_d; ++d) {
            for (std::uint32_t n : grid.sides) {
                const bool valid =
                    d <= n / 2 && !(depopulated && d > 1 && n % d != 0);
                cells.push_back(valid);
                if (!valid)
                    continue;
                RunPoint point{d == 0 ? NocConfig::hoplite(n)
                                      : NocConfig::fastTrack(
                                            n, d, depopulated ? d : 1)};
                point.workload.pattern = TrafficPattern::random;
                point.workload.injectionRate = 0.5;
                point.workload.packetsPerPe = grid.packetsAt(n);
                plan.points.push_back(point);
            }
        }
    }
    plan.render = [sides = grid.sides, max_d, prefix,
                   cells](const SynthResult *results) {
        auto cell = cells.begin();
        for (bool depopulated : {false, true}) {
            Table table(prefix + (depopulated ? "R=D (fully depopulated)"
                                              : "R=1 (fully populated)"));
            std::vector<std::string> header{"D"};
            for (std::uint32_t n : sides)
                header.push_back(std::to_string(n * n) + "-PE");
            table.setHeader(header);
            for (std::uint32_t d = 0; d <= max_d; ++d) {
                std::vector<std::string> row{std::to_string(d)};
                for (std::size_t i = 0; i < sides.size(); ++i) {
                    if (*cell++)
                        row.push_back(
                            Table::num((results++)->sustainedRate(), 4));
                    else
                        row.push_back(Table::na());
                }
                table.addRow(row);
            }
            table.print(std::cout);
            std::cout << "\n";
        }
    };
    return plan;
}

} // namespace fasttrack::bench

#endif // FT_BENCH_FIGURES_HPP
