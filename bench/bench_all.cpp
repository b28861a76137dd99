/**
 * @file
 * One-shot driver regenerating the synthetic-figure data of every
 * sweep-based paper plot (Figs 11-14, 16, 17) in a single invocation.
 *
 * All sweeps run on the persistent work-stealing pool and through the
 * sweep result cache, so `bench_all --result-cache DIR` twice is a
 * cold run followed by a warm replay: the second invocation must
 * produce byte-identical stdout in a fraction of the time (the CI
 * sweep-cache-smoke job pins both properties).
 *
 * Figure data goes to stdout (byte-deterministic); wall-clock timing
 * goes to stderr so it never perturbs the output comparison.
 *
 * Extra flag on top of the shared harness flags:
 *   --smoke  tiny configuration (64 packets/PE, 3 rates, 2 patterns)
 *            for CI; the full grid otherwise.
 */

#include <chrono>
#include <iostream>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "sim/experiment.hpp"
#include "sim/sweep_cache.hpp"

using namespace fasttrack;

namespace {

struct AllConfig
{
    std::vector<TrafficPattern> patterns;
    std::vector<double> rates;
    std::uint32_t packetsPerPe = 1024;
    std::vector<std::uint32_t> varyDSides;
    double histRate = 0.08;
};

AllConfig
fullConfig()
{
    AllConfig cfg;
    cfg.patterns.assign(std::begin(kAllPatterns),
                        std::end(kAllPatterns));
    cfg.rates = injectionRateGrid();
    cfg.packetsPerPe = 1024;
    cfg.varyDSides = {4, 8, 16};
    return cfg;
}

AllConfig
smokeConfig()
{
    AllConfig cfg;
    cfg.patterns = {TrafficPattern::random, TrafficPattern::transpose};
    cfg.rates = {0.05, 0.20, 0.50};
    cfg.packetsPerPe = 64;
    cfg.varyDSides = {4, 8};
    cfg.histRate = 0.05;
    return cfg;
}

/** Figs 11+12: per-pattern rate sweep of the standard lineup; one
 *  table carrying both the sustained-rate and avg-latency series. */
void
runRateSweeps(const AllConfig &cfg)
{
    const auto lineup = standardLineup(8);
    for (TrafficPattern pattern : cfg.patterns) {
        Table table(std::string(toString(pattern)) +
                    ": sustained rate / avg latency by injection rate");
        std::vector<std::string> header{"inj-rate"};
        for (const auto &nut : lineup)
            header.push_back(nut.label + " rate");
        for (const auto &nut : lineup)
            header.push_back(nut.label + " lat");
        table.setHeader(header);

        std::vector<std::vector<SweepPoint>> sweeps;
        for (const auto &nut : lineup)
            sweeps.push_back(injectionSweep(nut, pattern, cfg.rates,
                                            cfg.packetsPerPe));

        for (std::size_t r = 0; r < cfg.rates.size(); ++r) {
            std::vector<std::string> row{Table::num(cfg.rates[r], 2)};
            for (const auto &sweep : sweeps)
                row.push_back(
                    Table::num(sweep[r].result.sustainedRate(), 4));
            for (const auto &sweep : sweeps)
                row.push_back(
                    Table::num(sweep[r].result.avgLatency(), 1));
            table.addRow(row);
        }
        table.print(std::cout);
        std::cout << "\n";
    }
}

/** Fig 13: iso-wiring lineup under RANDOM traffic. */
void
runIsoWiring(const AllConfig &cfg)
{
    const auto lineup = isoWiringLineup(8);
    Table table("iso-wiring lineup: sustained rate by injection rate "
                "(RANDOM)");
    std::vector<std::string> header{"inj-rate"};
    for (const auto &nut : lineup)
        header.push_back(nut.label);
    table.setHeader(header);

    std::vector<std::vector<SweepPoint>> sweeps;
    for (const auto &nut : lineup)
        sweeps.push_back(injectionSweep(nut, TrafficPattern::random,
                                        cfg.rates, cfg.packetsPerPe));
    for (std::size_t r = 0; r < cfg.rates.size(); ++r) {
        std::vector<std::string> row{Table::num(cfg.rates[r], 2)};
        for (const auto &sweep : sweeps)
            row.push_back(
                Table::num(sweep[r].result.sustainedRate(), 4));
        table.addRow(row);
    }
    table.print(std::cout);
    std::cout << "\n";
}

/** Fig 14: saturation throughput of the iso-wiring lineup. */
void
runSaturation(const AllConfig &cfg)
{
    const auto lineup = isoWiringLineup(8);
    Table table("saturation throughput (pkt/cycle/PE) at 100% offered "
                "load");
    std::vector<std::string> header{"pattern"};
    for (const auto &nut : lineup)
        header.push_back(nut.label);
    table.setHeader(header);
    for (TrafficPattern pattern : cfg.patterns) {
        std::vector<std::string> row{std::string(toString(pattern))};
        for (const auto &nut : lineup) {
            const SynthResult res =
                saturationRun(nut, pattern, cfg.packetsPerPe);
            row.push_back(Table::num(res.sustainedRate(), 4));
        }
        table.addRow(row);
    }
    table.print(std::cout);
    std::cout << "\n";
}

/** Fig 16: latency distribution summary at low injection. */
void
runLatencySummary(const AllConfig &cfg)
{
    const auto lineup = standardLineup(8);
    Table table("latency summary (cycles), RANDOM @ " +
                Table::num(cfg.histRate, 2) + " injection");
    table.setHeader({"NoC", "mean", "p50", "p99", "worst"});
    for (const auto &nut : lineup) {
        SyntheticWorkload workload;
        workload.pattern = TrafficPattern::random;
        workload.injectionRate = cfg.histRate;
        workload.packetsPerPe = cfg.packetsPerPe;
        const SynthResult res =
            cachedRunSynthetic(nut.config, nut.channels, workload);
        const auto &h = res.stats.totalLatency;
        table.addRow({nut.label, Table::num(h.mean(), 1),
                      Table::num(h.percentile(50)),
                      Table::num(h.percentile(99)),
                      Table::num(h.max())});
    }
    table.print(std::cout);
    std::cout << "\n";
}

/** Fig 17: sustained rate vs express length D (RANDOM @50%). */
void
runVaryD(const AllConfig &cfg)
{
    for (bool depopulated : {false, true}) {
        Table table(depopulated
                        ? "vary-D, R=D (fully depopulated)"
                        : "vary-D, R=1 (fully populated)");
        std::vector<std::string> header{"D"};
        for (std::uint32_t n : cfg.varyDSides)
            header.push_back(std::to_string(n * n) + "-PE");
        table.setHeader(header);

        std::uint32_t max_side = 0;
        for (std::uint32_t n : cfg.varyDSides)
            max_side = std::max(max_side, n);
        for (std::uint32_t d = 0; d <= max_side / 2; ++d) {
            std::vector<std::string> row{std::to_string(d)};
            for (std::uint32_t n : cfg.varyDSides) {
                if (d > n / 2 ||
                    (depopulated && d > 1 && n % d != 0)) {
                    row.push_back(Table::na());
                    continue;
                }
                const NocConfig noc =
                    d == 0 ? NocConfig::hoplite(n)
                           : NocConfig::fastTrack(n, d,
                                                  depopulated ? d : 1);
                SyntheticWorkload workload;
                workload.pattern = TrafficPattern::random;
                workload.injectionRate = 0.5;
                workload.packetsPerPe =
                    n >= 16 ? cfg.packetsPerPe / 4 : cfg.packetsPerPe;
                const SynthResult res =
                    cachedRunSynthetic(noc, 1, workload);
                row.push_back(Table::num(res.sustainedRate(), 4));
            }
            table.addRow(row);
        }
        table.print(std::cout);
        std::cout << "\n";
    }
}

} // namespace

int
main(int argc, char **argv)
{
    bool smoke = false;
    bench::parseArgs(argc, argv,
                     {toggleFlag("--smoke",
                                 "run a tiny grid (64 packets/PE, 3 rates, "
                                 "2 patterns) for CI instead of the full "
                                 "one",
                                 [&smoke] { smoke = true; })});
    const AllConfig cfg = smoke ? smokeConfig() : fullConfig();

    bench::banner(
        std::string("bench_all: synthetic sweep data, Figs 11-14/16/17"
                    " (") +
            (smoke ? "smoke" : "full") + " grid)",
        "one driver, every sweep figure; cached reruns must be "
        "byte-identical");

    const auto start = std::chrono::steady_clock::now();
    runRateSweeps(cfg);
    runIsoWiring(cfg);
    runSaturation(cfg);
    runLatencySummary(cfg);
    runVaryD(cfg);
    const auto elapsed =
        std::chrono::duration<double>(
            std::chrono::steady_clock::now() - start)
            .count();

    const auto stats = sweepCache().stats();
    std::cerr << "bench_all: " << elapsed << " s, cache hits "
              << stats.hits << " (disk " << stats.diskHits
              << "), misses " << stats.misses << ", stores "
              << stats.stores << "\n";
    return 0;
}
