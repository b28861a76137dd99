/**
 * @file
 * perfbench: host-time benchmark of the FastTrack simulator.
 *
 *   perfbench --workload NAME --seed N --seconds S --trace 0|1
 *             --ftd PATH [--work-dir DIR] [--short]
 *
 * Workloads: synth-sweep, trace-replay, warm-replay, remote-loopback
 * (see README.md). With --trace 0 it prints the end-to-end metrics,
 * with --trace 1 the per-layer metrics of a traced run; the last line
 * of stdout is one JSON object {"correct", "attempted", "failed",
 * "metrics"}. Exit status 2 means bad arguments, 1 that the workload
 * could not run.
 */

#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <iostream>
#include <string>

#include "workloads.hpp"

namespace {

using perfbench::Options;
using perfbench::Outcome;

int
usage(const char *prog)
{
    std::cerr << "usage: " << prog
              << " --workload synth-sweep|trace-replay|warm-replay|"
                 "remote-loopback --seed N --seconds S --trace 0|1"
                 " --ftd PATH [--work-dir DIR] [--short]\n";
    return 2;
}

bool
parseArgs(int argc, char **argv, Options &opt)
{
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (flag == "--short") {
            opt.shortMode = true;
            continue;
        }
        if (i + 1 >= argc)
            return false;
        const std::string value = argv[++i];
        char *end = nullptr;
        if (flag == "--workload") {
            opt.workload = value;
        } else if (flag == "--seed") {
            opt.seed = std::strtoull(value.c_str(), &end, 10);
        } else if (flag == "--seconds") {
            opt.seconds = std::strtod(value.c_str(), &end);
        } else if (flag == "--trace") {
            if (value != "0" && value != "1")
                return false;
            opt.traced = value == "1";
        } else if (flag == "--ftd") {
            opt.ftdPath = value;
        } else if (flag == "--work-dir") {
            opt.workDir = value;
        } else {
            return false;
        }
        if (end && (end == value.c_str() || *end != '\0'))
            return false;
    }
    return !opt.workload.empty() && opt.seconds > 0.0;
}

} // namespace

int
main(int argc, char **argv)
{
    Options opt;
    if (!parseArgs(argc, argv, opt))
        return usage(argv[0]);
    std::error_code ec;
    std::filesystem::create_directories(opt.workDir, ec);

    Outcome out;
    if (opt.workload == "synth-sweep") {
        out = perfbench::runSynthSweep(opt);
    } else if (opt.workload == "trace-replay") {
        out = perfbench::runTraceReplay(opt);
    } else if (opt.workload == "warm-replay") {
        out = perfbench::runWarmReplay(opt);
    } else if (opt.workload == "remote-loopback") {
        std::string error;
        if (!perfbench::runRemoteLoopback(opt, out, error)) {
            std::cerr << argv[0] << ": remote-loopback: " << error << "\n";
            return 1;
        }
    } else {
        return usage(argv[0]);
    }

    std::cout << "perfbench " << opt.workload << " seed " << opt.seed
              << (opt.traced ? " traced" : "") << ": " << out.passes
              << " pass(es), error_rate "
              << perfbench::ratio(static_cast<double>(out.failed),
                                  static_cast<double>(out.attempted))
              << " (" << out.failed << "/" << out.attempted << ")\n";
    for (const auto &m : out.metrics.entries())
        std::cout << "  " << m.name << " = " << m.value << " " << m.unit
                  << "\n";
    std::cout << out.metrics.json(out.failed == 0 && out.attempted > 0,
                                  out.attempted, out.failed)
              << std::endl;
    return 0;
}
