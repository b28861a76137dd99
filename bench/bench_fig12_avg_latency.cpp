/**
 * @file
 * Fig 12 reproduction: average packet latency vs injection rate for a
 * 64-PE NoC under the four synthetic patterns. The FastTrack curves
 * should stay flat to much higher injection rates (higher saturation
 * throughput) than Hoplite.
 */

#include "bench_util.hpp"
#include "figures.hpp"

using namespace fasttrack;

int
main(int argc, char **argv)
{
    bench::parseArgs(argc, argv);
    bench::banner(
        "Fig 12: average latency (cycles) vs injection rate, 64 PEs",
        "at the 100-cycle level FastTrack R=1 saturates at up to 5x "
        "higher injection (RANDOM/BITCOMPL), ~2x for LOCAL/TRANSPOSE");

    // Latency plots focus on the pre/post saturation knee.
    bench::Grid grid;
    grid.rates = {0.01, 0.02, 0.05, 0.08, 0.10, 0.12,
                  0.15, 0.20, 0.25, 0.30, 0.40, 0.50};
    bench::runPlans({bench::rateSweeps(
        grid, "average latency", {bench::kLatency},
        bench::Chart{"avg latency vs injection rate, log y", true,
                     "cycles"})});
    return 0;
}
