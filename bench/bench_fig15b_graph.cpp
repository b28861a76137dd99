/**
 * @file
 * Fig 15b reproduction: graph-analytics vertex-push traces. Road
 * networks (spatially partitioned, local traffic) should see little
 * benefit; power-law web/social graphs should scale best at large PE
 * counts.
 */

#include <iostream>

#include "bench_trace_util.hpp"
#include "bench_util.hpp"
#include "workloads/graph_analytics.hpp"

using namespace fasttrack;

int
main(int argc, char **argv)
{
    bench::parseArgs(argc, argv, bench::traceReplayFlags());
    bench::banner(
        "Fig 15b: graph analytics trace speedups (best FastTrack vs "
        "Hoplite)",
        "up to ~2.8x, best scaling at 256 PEs; roadNet-CA stays near "
        "1x (local traffic)");

    const std::uint32_t sides[] = {4, 8, 16}; // 16..256 PEs

    Table table("speedup by graph and PE count");
    std::vector<std::string> header{"graph"};
    for (std::uint32_t n : sides)
        header.push_back(std::to_string(n * n) + "-PE");
    header.push_back("best cfg @256");
    table.setHeader(header);

    for (const GraphBenchmark &bench_params : graphCatalog()) {
        const Graph graph = bench_params.build();
        std::vector<std::string> row{bench_params.name};
        std::string best;
        for (std::uint32_t n : sides) {
            const Trace trace = graphPushTrace(
                graph, n, defaultPartition(bench_params));
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
