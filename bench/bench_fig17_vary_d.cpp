/**
 * @file
 * Fig 17 reproduction: sustained rate of RANDOM traffic at 50%
 * injection as the express-link length D varies, for fully populated
 * (R=1) and fully depopulated (R=D) FastTrack NoCs across system
 * sizes.
 */

#include "bench_util.hpp"
#include "figures.hpp"

using namespace fasttrack;

int
main(int argc, char **argv)
{
    bench::parseArgs(argc, argv);
    bench::banner(
        "Fig 17: sustained rate vs express length D (RANDOM @50%)",
        "gains peak at D=2-3 for an 8x8 NoC and drop at D=4 (too few "
        "packets travel far enough); depopulation (R=D) trades "
        "throughput for cost but still beats D=0");

    bench::runPlans({bench::varyD(bench::Grid{}, "")});
    return 0;
}
