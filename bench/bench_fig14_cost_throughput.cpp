/**
 * @file
 * Fig 14 reproduction: cost-aware comparison at 100% RANDOM injection
 * on an 8x8 NoC. (a) LUT area vs throughput in million packets/s
 * (sustained rate x PEs x clock); (b) ring wire count vs throughput.
 */

#include "bench_util.hpp"
#include "figures.hpp"

using namespace fasttrack;

int
main(int argc, char **argv)
{
    bench::parseArgs(argc, argv);
    bench::banner(
        "Fig 14: logic-area and wire-count vs throughput, 8x8 RANDOM "
        "@100% injection",
        "FT designs deliver 2.5-3x Hoplite, ~1.8x Hoplite-2x, ~1.2x "
        "Hoplite-3x, with fewer LUTs than the multi-channel designs");

    bench::runPlans({bench::costThroughput()});
    return 0;
}
