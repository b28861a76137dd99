/**
 * @file
 * Fig 11 reproduction: sustained rate vs injection rate for a 64-PE
 * NoC under the four synthetic patterns, comparing FT(64,2,1),
 * FT(64,2,2) and baseline Hoplite (1K packets/PE).
 */

#include "bench_util.hpp"
#include "figures.hpp"

using namespace fasttrack;

int
main(int argc, char **argv)
{
    bench::parseArgs(argc, argv);
    bench::banner(
        "Fig 11: sustained rate (pkt/cycle/PE) vs injection rate, "
        "64 PEs",
        "FT(64,2,1) up to 2.5x Hoplite on RANDOM, 2x BITCOMPL, 1.5x "
        "LOCAL, ~1x TRANSPOSE; no win below 10% injection; R=2 sits "
        "between");

    bench::runPlans({bench::rateSweeps(
        bench::Grid{}, "sustained rate", {bench::kRate},
        bench::Chart{"sustained rate vs injection rate", false,
                     "pkt/cyc/PE"})});
    return 0;
}
