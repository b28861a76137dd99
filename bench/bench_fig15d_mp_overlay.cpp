/**
 * @file
 * Fig 15d reproduction: multi-processor overlay (SNIPER/PARSEC
 * analogs) on a 32-PE overlay. The paper runs 32 worker PEs; we host
 * them on a 6x6 torus with 4 idle nodes.
 */

#include <iostream>

#include "bench_trace_util.hpp"
#include "bench_util.hpp"
#include "workloads/mp_overlay.hpp"

using namespace fasttrack;

int
main(int argc, char **argv)
{
    bench::parseArgs(argc, argv, bench::traceReplayFlags());
    bench::banner(
        "Fig 15d: multiprocessor overlay speedups @ 32 worker PEs "
        "(best FastTrack vs Hoplite)",
        "~2x for communication-bound pipeline codes (x264, vips, "
        "dedup); ~1x for compute-bound / local ones (freqmine, "
        "blackscholes)");

    const std::uint32_t n = 6;           // 36-node torus
    const std::uint32_t active_pes = 32; // paper's worker count

    Table table("speedup by benchmark");
    table.setHeader({"benchmark", "Hoplite cyc", "best FT cyc",
                     "speedup", "best cfg"});

    for (const ParsecBenchmark &params : parsecCatalog()) {
        const Trace trace = mpOverlayTrace(params, n, active_pes);
        const bench::TraceSpeedup s = bench::traceSpeedup(trace);
        table.addRow({params.name, Table::num(s.hopliteCycles),
                      Table::num(s.bestFtCycles),
                      Table::num(s.speedup(), 2), s.bestConfig});
    }
    table.print(std::cout);
    return 0;
}
