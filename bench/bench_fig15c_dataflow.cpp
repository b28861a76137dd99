/**
 * @file
 * Fig 15c reproduction: token LU-factorization dataflow traces.
 * Latency-sensitive: packets inject along dependency chains, so the
 * NoC's per-message latency, not its bandwidth, bounds completion.
 */

#include <iostream>

#include "bench_trace_util.hpp"
#include "bench_util.hpp"
#include "workloads/dataflow.hpp"

using namespace fasttrack;

int
main(int argc, char **argv)
{
    bench::parseArgs(argc, argv, bench::traceReplayFlags());
    bench::banner(
        "Fig 15c: sparse LU token dataflow speedups (best FastTrack "
        "vs Hoplite)",
        "modest (~1.4x peak) and concentrated at 256 PEs; small PE "
        "counts serialize inside the PEs, not the NoC");

    const std::uint32_t sides[] = {4, 8, 16}; // 16..256 PEs

    Table table("speedup by LU dataflow graph and PE count");
    std::vector<std::string> header{"circuit"};
    for (std::uint32_t n : sides)
        header.push_back(std::to_string(n * n) + "-PE");
    header.push_back("best cfg @256");
    table.setHeader(header);

    for (const LuDagParams &params : luCatalog()) {
        const DataflowDag dag = sparseLuDag(params);
        std::vector<std::string> row{params.name};
        std::string best;
        for (std::uint32_t n : sides) {
            const Trace trace = dataflowTrace(dag, n);
            const bench::TraceSpeedup s = bench::traceSpeedup(trace);
            row.push_back(Table::num(s.speedup(), 2));
            best = s.bestConfig;
        }
        row.push_back(best);
        table.addRow(row);
    }
    table.print(std::cout);
    return 0;
}
