/**
 * @file
 * One-shot driver regenerating the synthetic-figure data of every
 * sweep-based paper plot (Figs 11-14, 16, 17) in a single invocation:
 * the union of their plans (figures.hpp) runs as one executor batch,
 * then each figure renders in turn.
 *
 * The batch runs on the persistent work-stealing pool, or as one
 * --remote fan-out, and through the sweep result cache, so
 * `bench_all --result-cache DIR` twice is a cold run followed by a
 * warm replay: the second invocation must produce byte-identical
 * stdout in a fraction of the time (the CI sweep-cache-smoke job pins
 * both properties).
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

#include "bench_util.hpp"
#include "figures.hpp"

using namespace fasttrack;

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
    bench::Grid grid;
    if (smoke) {
        grid.patterns = {TrafficPattern::random, TrafficPattern::transpose};
        grid.rates = {0.05, 0.20, 0.50};
        grid.packetsPerPe = 64;
        grid.sides = {4, 8};
        grid.histRate = 0.05;
    }

    bench::banner(
        std::string("bench_all: synthetic sweep data, Figs 11-14/16/17"
                    " (") +
            (smoke ? "smoke" : "full") + " grid)",
        "one driver, every sweep figure; cached reruns must be "
        "byte-identical");

    const auto start = std::chrono::steady_clock::now();
    bench::runPlans(
        {bench::rateSweeps(grid, "sustained rate / avg latency",
                           {{" rate", &SynthResult::sustainedRate, 4},
                            {" lat", &SynthResult::avgLatency, 1}}),
         bench::isoWiringTable(grid), bench::saturationTable(grid),
         bench::latencySummary(grid), bench::varyD(grid, "vary-D, ")});
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
