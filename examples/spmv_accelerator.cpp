/**
 * @file
 * Domain scenario: a sparse matrix-vector multiply accelerator whose
 * PEs exchange vector entries over the NoC (the paper's Fig 15a case
 * study). Generates a circuit-style matrix, synthesizes its
 * communication trace, and compares Hoplite against FastTrack
 * configurations in both cycles and wall-clock microseconds.
 *
 * Run: ./spmv_accelerator [<rows>] [<noc-side>] [<local-fraction>]
 */

#include <iostream>
#include <limits>

#include "common/flags.hpp"
#include "common/table.hpp"
#include "fpga/area_model.hpp"
#include "sim/simulation.hpp"
#include "workloads/spmv.hpp"

using namespace fasttrack;

int
main(int argc, char **argv)
{
    const Positionals args{argc, argv,
                           "[<rows>] [<noc-side>] [<local-fraction>]"};
    const auto rows = args.number<std::uint32_t>(
        1, "<rows>", 8000, 4, std::numeric_limits<std::uint32_t>::max());
    const auto n =
        args.number<std::uint32_t>(2, "<noc-side>", 8, 2, kMaxTraceSide);
    const auto local =
        args.number<double>(3, "<local-fraction>", 0.6, 0.0, 1.0);
    // From side 4 on, the lineup adds FT(N^2,2,1) and FT(N^2,2,2).
    if (n >= 4) {
        for (const std::uint32_t r : {1u, 2u})
            args.check("<noc-side>",
                       NocConfig{.n = n, .d = 2, .r = r,
                                 .variant = NocVariant::ftFull}
                           .validationError());
    }

    MatrixParams params;
    params.name = "example";
    params.rows = rows;
    params.avgNnzPerRow = 6.0;
    params.localFraction = local;
    const SparseMatrix matrix = generateMatrix(params);

    std::cout << "SpMV accelerator example\n"
              << "matrix: " << matrix.rows << " rows, " << matrix.nnz()
              << " nonzeros, "
              << Table::num(100.0 * matrix.bandedFraction(
                                static_cast<std::uint32_t>(
                                    0.02 * matrix.rows)), 1)
              << "% within the 2% band\n";

    const Trace trace = spmvTrace(matrix, n);
    std::uint64_t self = 0;
    for (const auto &m : trace.messages)
        self += m.src == m.dst;
    std::cout << "trace: " << trace.messages.size() << " messages ("
              << self << " node-local) on a " << n << "x" << n
              << " NoC\n\n";

    AreaModel area;
    Table table("one SpMV sweep: routing time by NoC");
    table.setHeader({"NoC", "cycles", "MHz", "time(us)", "LUTs",
                     "speedup"});

    struct Candidate
    {
        std::string label;
        NocConfig cfg;
    };
    std::vector<Candidate> noc_list = {
        {"Hoplite", NocConfig::hoplite(n)},
    };
    if (n >= 4) {
        noc_list.push_back({"FT(2,1)", NocConfig::fastTrack(n, 2, 1)});
        noc_list.push_back({"FT(2,2)", NocConfig::fastTrack(n, 2, 2)});
    }
    if (n >= 8)
        noc_list.push_back({"FT(4,1)", NocConfig::fastTrack(n, 4, 1)});

    double hoplite_us = 0.0;
    for (const Candidate &cand : noc_list) {
        const TraceResult res =
            runSim({.config = &cand.cfg, .trace = &trace}).trace;
        const NocCost cost = area.nocCost(cand.cfg.toSpec(256));
        const double us =
            static_cast<double>(res.completion) / cost.frequencyMhz;
        if (hoplite_us == 0.0)
            hoplite_us = us;
        table.addRow({cand.label, Table::num(res.completion),
                      Table::num(cost.frequencyMhz, 0),
                      Table::num(us, 1), Table::num(cost.luts),
                      Table::num(hoplite_us / us, 2) + "x"});
    }
    table.print(std::cout);

    std::cout << "\nTip: raise localFraction toward 0.95 to emulate "
                 "hamm_memplus-style matrices where block mapping "
                 "keeps traffic local and FastTrack's edge shrinks.\n";
    return 0;
}
