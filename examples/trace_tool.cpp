/**
 * @file
 * Trace workbench: generate any of the library's workload traces to a
 * portable text file, inspect it, or replay it on a chosen NoC
 * configuration -- the glue a user needs to evaluate their *own*
 * traffic on FastTrack.
 *
 * Usage:
 *   trace_tool gen <spmv|graph|dataflow|parsec> <n> <out-file>
 *   trace_tool info <file>
 *   trace_tool replay <file> <hoplite|ft-full|ft-inject> [<D>] [<R>]
 */

#include <fstream>
#include <iostream>
#include <map>

#include "common/flags.hpp"
#include "common/logging.hpp"
#include "common/table.hpp"
#include "sim/simulation.hpp"
#include "workloads/dataflow.hpp"
#include "workloads/graph_analytics.hpp"
#include "workloads/mp_overlay.hpp"
#include "workloads/spmv.hpp"

using namespace fasttrack;

namespace {

int
usage()
{
    std::cerr
        << "usage:\n"
        << "  trace_tool gen <spmv|graph|dataflow|parsec> <n> <file>\n"
        << "  trace_tool info <file>\n"
        << "  trace_tool replay <file> <hoplite|ft-full|ft-inject> "
           "[<D>=2] [<R>=1]\n";
    return 2;
}

/** Read the trace file at @p path into @p trace; false after one
 *  stderr line naming the path and what is wrong with the file. */
bool
loadTrace(const std::string &path, Trace &trace)
{
    std::ifstream in(path);
    const std::string error =
        in ? Trace::load(in, trace) : "cannot open trace file";
    if (error.empty())
        return true;
    std::cerr << "trace_tool: " << path << ": " << error << "\n";
    return false;
}

int
cmdGen(const std::string &kind, std::uint32_t n,
       const std::string &path)
{
    Trace trace;
    if (kind == "spmv") {
        MatrixParams params = spmvCatalog().front();
        trace = spmvTrace(generateMatrix(params), n);
    } else if (kind == "graph") {
        const GraphBenchmark bench = graphCatalog().front();
        trace = graphPushTrace(bench.build(), n,
                               defaultPartition(bench));
    } else if (kind == "dataflow") {
        trace = dataflowTrace(sparseLuDag(luCatalog().front()), n);
    } else if (kind == "parsec") {
        trace = mpOverlayTrace(parsecCatalog().front(), n,
                               std::min(32u, n * n));
    } else {
        return usage();
    }
    std::ofstream out(path);
    if (!out)
        FT_FATAL("cannot write trace file: ", path);
    trace.save(out);
    std::cout << "wrote " << trace.messages.size() << " messages ("
              << trace.name << ") to " << path << "\n";
    return 0;
}

int
cmdInfo(const std::string &path)
{
    Trace trace;
    if (!loadTrace(path, trace))
        return 2;
    std::uint64_t self = 0, with_deps = 0;
    std::map<NodeId, std::uint64_t> per_src;
    for (std::size_t id = 0; id < trace.messages.size(); ++id) {
        const TraceMessage &m = trace.messages[id];
        self += m.src == m.dst;
        with_deps += !trace.depsOf(id).empty();
        ++per_src[m.src];
    }
    std::uint64_t busiest = 0;
    for (const auto &[node, count] : per_src)
        busiest = std::max(busiest, count);

    Table table("trace " + trace.name);
    table.setHeader({"property", "value"});
    table.addRow({"NoC side", Table::num(
                      static_cast<std::uint64_t>(trace.n))});
    table.addRow({"messages", Table::num(
                      static_cast<std::uint64_t>(
                          trace.messages.size()))});
    table.addRow({"node-local", Table::num(self)});
    table.addRow({"with dependencies", Table::num(with_deps)});
    table.addRow({"active sources", Table::num(
                      static_cast<std::uint64_t>(per_src.size()))});
    table.addRow({"busiest source msgs", Table::num(busiest)});
    table.addRow({"last timestamp", Table::num(
                      trace.messages.empty()
                          ? 0
                          : trace.messages.back().earliest)});
    table.print(std::cout);
    return 0;
}

int
cmdReplay(const Positionals &args, const std::string &path,
          const std::string &kind, std::uint32_t d, std::uint32_t r)
{
    const std::optional<NocVariant> variant = variantFromString(kind);
    if (!variant)
        return usage();
    Trace trace;
    if (!loadTrace(path, trace))
        return 2;
    NocConfig cfg = NocConfig::hoplite(trace.n);
    if (*variant != NocVariant::hoplite) {
        // The trace fixes N. At R = 1 only the rules on D apply.
        args.check("<D>", NocConfig{.n = trace.n, .d = d, .r = 1,
                                    .variant = *variant}
                              .validationError());
        args.check("<R>", NocConfig{.n = trace.n, .d = d, .r = r,
                                    .variant = *variant}
                              .validationError());
        cfg = NocConfig::fastTrack(trace.n, d, r, *variant);
    }

    const TraceResult res =
        runSim({.config = &cfg, .trace = &trace}).trace;
    Table table("replay of " + trace.name + " on " + cfg.describe());
    table.setHeader({"metric", "value"});
    table.addRow({"completion (cycles)", Table::num(res.completion)});
    table.addRow({"avg latency", Table::num(
                      res.stats.totalLatency.mean(), 1)});
    table.addRow({"p99 latency", Table::num(
                      res.stats.totalLatency.percentile(99))});
    table.addRow({"worst latency", Table::num(
                      res.stats.totalLatency.max())});
    table.addRow({"short hops", Table::num(
                      res.stats.shortHopTraversals)});
    table.addRow({"express hops", Table::num(
                      res.stats.expressHopTraversals)});
    table.addRow({"misroutes", Table::num(res.stats.totalMisroutes())});
    table.print(std::cout);
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 3)
        return usage();
    const std::string cmd = argv[1];
    if (cmd == "gen" && argc >= 5) {
        const Positionals args{
            argc, argv, "gen <spmv|graph|dataflow|parsec> <n> <file>"};
        return cmdGen(argv[2],
                      args.number<std::uint32_t>(3, "<n>", 0, 2,
                                                 kMaxTraceSide),
                      argv[4]);
    }
    if (cmd == "info")
        return cmdInfo(argv[2]);
    if (cmd == "replay" && argc >= 4) {
        const Positionals args{
            argc, argv,
            "replay <file> <hoplite|ft-full|ft-inject> [<D>] [<R>]"};
        const auto d =
            args.number<std::uint32_t>(4, "<D>", 2, 1, kMaxTraceSide / 2);
        const auto r =
            args.number<std::uint32_t>(5, "<R>", 1, 1, kMaxTraceSide / 2);
        return cmdReplay(args, argv[2], argv[3], d, r);
    }
    return usage();
}
