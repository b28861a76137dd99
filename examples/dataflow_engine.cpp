/**
 * @file
 * Domain scenario: a token-dataflow engine (the paper's sparse-LU
 * case study, Fig 15c). Builds a low-ILP elimination DAG, distributes
 * its operations over the PEs, and replays the token traffic --
 * showing why latency-bound workloads care about express links and
 * how compute delay shifts the bottleneck between PEs and NoC.
 *
 * Run: ./dataflow_engine [<ops>] [<noc-side>] [<compute-delay>]
 */

#include <iostream>
#include <limits>

#include "common/flags.hpp"
#include "common/table.hpp"
#include "sim/simulation.hpp"
#include "workloads/dataflow.hpp"

using namespace fasttrack;

int
main(int argc, char **argv)
{
    constexpr std::uint32_t kMax = std::numeric_limits<std::uint32_t>::max();
    const Positionals args{argc, argv,
                           "[<ops>] [<noc-side>] [<compute-delay>]"};
    const auto ops = args.number<std::uint32_t>(1, "<ops>", 6000, 8, kMax);
    const auto n =
        args.number<std::uint32_t>(2, "<noc-side>", 8, 2, kMaxTraceSide);
    const auto delay =
        args.number<Cycle>(3, "<compute-delay>", 2, 0, kMax);
    for (const std::uint32_t r : {1u, 2u})
        args.check("<noc-side>", NocConfig{.n = n, .d = 2, .r = r,
                                           .variant = NocVariant::ftFull}
                                     .validationError());

    LuDagParams params;
    params.name = "example";
    params.nodes = ops;
    params.avgWidth = 12.0;
    params.avgFanin = 1.8;
    const DataflowDag dag = sparseLuDag(params);

    std::cout << "Token dataflow engine example\n"
              << "DAG: " << dag.nodeCount << " ops, "
              << dag.edgeCount() << " token edges, depth "
              << dag.depth() << " (avg ILP "
              << Table::num(dag.avgWidth(), 1) << ")\n"
              << "critical path alone needs >= "
              << dag.depth() * (1 + delay)
              << " cycles of compute+firing before any NoC time\n\n";

    const Trace trace = dataflowTrace(dag, n, delay);

    Table table("makespan by NoC (lower is better)");
    table.setHeader({"NoC", "completion (cycles)", "avg token latency",
                     "speedup"});

    struct Candidate
    {
        std::string label;
        NocConfig cfg;
    };
    const Candidate noc_list[] = {
        {"Hoplite", NocConfig::hoplite(n)},
        {"FT(2,1)", NocConfig::fastTrack(n, 2, 1)},
        {"FT(2,2)", NocConfig::fastTrack(n, 2, 2)},
    };

    double baseline = 0.0;
    for (const Candidate &cand : noc_list) {
        const TraceResult res =
            runSim({.config = &cand.cfg, .trace = &trace}).trace;
        if (baseline == 0.0)
            baseline = static_cast<double>(res.completion);
        table.addRow({cand.label, Table::num(res.completion),
                      Table::num(res.stats.totalLatency.mean(), 1),
                      Table::num(baseline /
                                     static_cast<double>(res.completion),
                                 2) + "x"});
    }
    table.print(std::cout);

    std::cout << "\nEvery token traversal sits on the critical path "
                 "of some op chain: shaving per-hop latency with "
                 "express links compounds across the DAG depth. Try "
                 "compute-delay 20 to emulate heavyweight PEs and "
                 "watch the NoC stop mattering.\n";
    return 0;
}
