/**
 * @file
 * Fig 13 reproduction: iso-wiring comparison of FastTrack against
 * multi-channel replicated Hoplite for N = 16, 64 and 256 PEs under
 * RANDOM traffic. Hoplite-3x uses the same ring-track count as
 * FT(N,2,1); the question is which spends the wires better.
 */

#include "bench_util.hpp"
#include "figures.hpp"

using namespace fasttrack;

int
main(int argc, char **argv)
{
    bench::parseArgs(argc, argv);
    bench::banner(
        "Fig 13: multi-channel Hoplite vs FastTrack (RANDOM)",
        "FastTrack beats Hoplite-3x by 1.2-1.4x sustained rate and "
        "wins average latency, despite Hoplite-3x costing 1.5x more "
        "LUTs");

    bench::runPlans({bench::isoWiringSweeps(bench::Grid{})});
    return 0;
}
