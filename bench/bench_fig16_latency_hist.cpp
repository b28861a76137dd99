/**
 * @file
 * Fig 16 reproduction: packet latency histogram of a 64-PE NoC
 * routing RANDOM traffic at <10% injection. The interesting number is
 * the worst case: express links shorten the deflection penalty.
 */

#include "bench_util.hpp"
#include "figures.hpp"

using namespace fasttrack;

int
main(int argc, char **argv)
{
    bench::parseArgs(argc, argv);
    bench::banner(
        "Fig 16: latency histogram, 64 PEs, RANDOM @ <10% injection",
        "worst-case latency ~7x smaller than Hoplite for FT(64,2,1), "
        "~3x for the depopulated FT(64,2,2)");

    bench::runPlans({bench::latencyHistogram()});
    return 0;
}
