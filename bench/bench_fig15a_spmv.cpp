/**
 * @file
 * Fig 15a reproduction: Sparse Matrix-Vector Multiplication
 * communication traces. Speedup = Hoplite completion / best-FastTrack
 * completion at identical PE counts.
 */

#include <iostream>
#include <memory>

#include "bench_trace_util.hpp"
#include "bench_util.hpp"
#include "sim/telemetry_session.hpp"
#include "workloads/spmv.hpp"

using namespace fasttrack;

int
main(int argc, char **argv)
{
    bench::parseArgs(argc, argv,
                     bench::telemetryFlags(bench::traceReplayFlags()));
    bench::banner(
        "Fig 15a: SpMV trace speedups (best FastTrack vs Hoplite)",
        "up to ~2.5x; grows with PE count; predominantly-local "
        "matrices (hamm_memplus, bomhof_circuit_2) barely benefit");

    const std::uint32_t sides[] = {2, 4, 8, 16}; // 4..256 PEs

    // With --telemetry-dir the whole bench runs under one session:
    // every parallelMap worker replaying a trace gets its own Chrome
    // trace file, and each matrix shows up as a host phase span.
    std::unique_ptr<TelemetrySession> session;
    if (!bench::harnessFlags().telemetryDir.empty()) {
        telemetry::TelemetryConfig tcfg;
        tcfg.dir = bench::harnessFlags().telemetryDir;
        tcfg.epoch = bench::harnessFlags().telemetryEpoch;
        tcfg.filePrefix = "fig15a_";
        session = std::make_unique<TelemetrySession>(std::move(tcfg));
    }

    Table table("speedup by matrix and PE count");
    std::vector<std::string> header{"matrix"};
    for (std::uint32_t n : sides)
        header.push_back(std::to_string(n * n) + "-PE");
    header.push_back("best cfg @256");
    table.setHeader(header);

    for (const MatrixParams &params : spmvCatalog()) {
        telemetry::PhaseTimer phase("spmv " + params.name);
        const SparseMatrix matrix = generateMatrix(params);
        std::vector<std::string> row{params.name};
        std::string best;
        for (std::uint32_t n : sides) {
            const Trace trace = spmvTrace(matrix, n);
            const bench::TraceSpeedup s = bench::traceSpeedup(trace);
            row.push_back(Table::num(s.speedup(), 2));
            best = s.bestConfig;
        }
        row.push_back(best);
        table.addRow(row);
    }
    table.print(std::cout);

    if (session) {
        std::cout << "\n# telemetry artifacts:\n";
        for (const std::string &p : session->finish())
            std::cout << "#   " << p << "\n";
    }
    return 0;
}
