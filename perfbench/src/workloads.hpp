/**
 * @file
 * The four benchmark workloads. Each sets up (timed, several times),
 * then runs timed passes until the time budget is spent, checking the
 * outputs of every pass outside the timed region. The traced variant
 * runs one pass plus single-threaded, hand-driven replays of its
 * points and reports the per-layer metrics instead.
 */

#ifndef PERFBENCH_WORKLOADS_HPP
#define PERFBENCH_WORKLOADS_HPP

#include <cstdint>
#include <string>

#include "report.hpp"

namespace perfbench {

struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool traced = false;
    /** Small grids, for the self-test. */
    bool shortMode = false;
    /** The ftd binary remote-loopback starts. */
    std::string ftdPath;
    /** Scratch directory for the warm store and the span file. */
    std::string workDir = ".perfbench_work";
};

struct Outcome
{
    Metrics metrics;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    /** Passes timed (untraced) or 1 (traced). */
    std::uint64_t passes = 0;
};

Outcome runSynthSweep(const Options &opt);
Outcome runTraceReplay(const Options &opt);
Outcome runWarmReplay(const Options &opt);
/** False when the daemon cannot be started (@p error says why). */
bool runRemoteLoopback(const Options &opt, Outcome &out,
                       std::string &error);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_HPP
