/**
 * @file
 * Shared helpers for the paper-reproduction bench harnesses.
 */

#ifndef FT_BENCH_BENCH_UTIL_HPP
#define FT_BENCH_BENCH_UTIL_HPP

#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <limits>
#include <string>

#include "common/flags.hpp"
#include "common/parallel.hpp"
#include "common/table.hpp"
#include "sched/work_stealing_pool.hpp"
#include "sim/remote.hpp"
#include "sim/sweep_cache.hpp"
#include "telemetry/metrics.hpp"

namespace fasttrack::bench {

/** Values of the harness flags, filled by parseArgs. An empty string
 *  or a zero period leaves its feature off. */
struct HarnessFlags
{
    /** --telemetry-dir (telemetryFlags): the harness attaches a
     *  TelemetrySession exporting its artifacts here. */
    std::string telemetryDir;
    /** --telemetry-epoch: metrics snapshot period in cycles. */
    std::uint64_t telemetryEpoch = 1024;
    /** --cache-stats: end-of-run scheduler/cache metrics CSV. */
    std::string cacheStatsFile;
    /** --snapshot-every / --snapshot-dir / --resume (traceReplayFlags
     *  in bench_trace_util.hpp): trace replays checkpoint into, and
     *  resume from, a per-run subdirectory of these roots
     *  (docs/checkpoint.md). */
    std::uint64_t snapshotEvery = 0;
    std::string snapshotDir;
    std::string resumeDir;
    /** --shard-cycles: trace replays run as temporal shards across
     *  the --remote fleet (docs/distributed.md, "Temporal
     *  sharding"). */
    std::uint64_t shardCycles = 0;
};

inline HarnessFlags &
harnessFlags()
{
    static HarnessFlags flags;
    return flags;
}

/** Publish sweep-cache and pool counters into a registry and write
 *  the `metric,kind,value` summary CSV to @p os. */
inline void
writeCacheStats(std::ostream &os)
{
    telemetry::MetricsRegistry metrics;
    sweepCache().reportTo(metrics);
    sched::ensureGlobalPool().reportTo(metrics);
    if (remoteConfigured())
        reportRemoteStats(metrics);
    metrics.writeSummary(os);
}

/** atexit hook registered by parseArgs when --cache-stats is given,
 *  so every harness gets the dump without per-main() plumbing. The
 *  hook is registered after the global pool is constructed, hence
 *  runs before the pool is torn down. */
inline void
writeCacheStatsAtExit()
{
    std::ofstream os(harnessFlags().cacheStatsFile);
    if (!os) {
        std::cerr << "cache-stats: cannot write '"
                  << harnessFlags().cacheStatsFile << "'\n";
        return;
    }
    writeCacheStats(os);
}

/** Turn a lineup label like "FT(64,2,2)" into a file-name-safe
 *  artifact prefix like "FT_64_2_2". */
inline std::string
fileSafeLabel(const std::string &label)
{
    std::string out;
    out.reserve(label.size());
    bool last_sep = true;
    for (char c : label) {
        const bool ok = (c >= 'a' && c <= 'z') ||
                        (c >= 'A' && c <= 'Z') ||
                        (c >= '0' && c <= '9') || c == '-' || c == '.';
        if (ok) {
            out.push_back(c);
            last_sep = false;
        } else if (!last_sep) {
            out.push_back('_');
            last_sep = true;
        }
    }
    while (!out.empty() && out.back() == '_')
        out.pop_back();
    return out;
}

/** Append the --telemetry-dir / --telemetry-epoch rows to @p flags:
 *  for the harnesses that read them (Figs 15a and 18). */
inline FlagTable
telemetryFlags(FlagTable flags = {})
{
    HarnessFlags &values = harnessFlags();
    flags.push_back(textFlag("--telemetry-dir", "DIR",
                             "export telemetry artifacts (Chrome traces, "
                             "link heatmaps, metrics CSV) into DIR",
                             values.telemetryDir));
    flags.push_back(integerFlag("--telemetry-epoch", "N",
                                "metrics snapshot period in cycles "
                                "(default 1024)",
                                values.telemetryEpoch, 1));
    return flags;
}

/**
 * Parse the process-wide harness flags every bench shares (--csv,
 * --threads, --result-cache*, --cache-stats, --remote), plus the
 * @p extra rows a harness adds for what it alone reads, from one flag
 * table (common/flags.hpp). Any error — a typo, a flag this harness
 * does not read, a malformed or out-of-range value, a broken
 * cross-flag rule — prints the usage and exits 2, so a mistake cannot
 * silently run the default configuration. Call first in main().
 */
inline void
parseArgs(int argc, char **argv, FlagTable extra = {})
{
    HarnessFlags &values = harnessFlags();
    unsigned threads = 0; // 0 = hardware concurrency
    FlagTable flags = {
        toggleFlag("--csv", "emit tables as CSV (for scripting)",
                   [] { Table::setCsvMode(true); }),
        integerFlag("--threads", "N", "cap parallel sweep workers at N",
                    threads, 1),
        textFlag("--result-cache", "DIR",
                 "persist sweep results in DIR and reuse them across "
                 "invocations",
                 [](const std::string &dir) {
                     sweepCache().setDir(dir);
                     return std::string();
                 }),
        integerFlag("--result-cache-max-bytes", "N",
                    "cap the --result-cache store at N bytes, evicting "
                    "oldest entries",
                    1, std::numeric_limits<std::uint64_t>::max(),
                    [](std::uint64_t n) {
                        sweepCache().setMaxDiskBytes(n);
                    }),
        textFlag("--cache-stats", "FILE",
                 "write scheduler/cache counters as CSV "
                 "(metric,kind,value) at exit",
                 values.cacheStatsFile),
        remoteFlag("fan sweep points out to ftd daemons (unreachable "
                   "workers fall back to local execution)"),
    };
    for (Flag &flag : extra)
        flags.push_back(std::move(flag));
    parseFlagsOrExit(flags, argc, argv);

    // Route --threads into the process-wide parallelMap default
    // (sweeps pick it up without per-call plumbing), size the
    // persistent pool from it, then register the stats hook — after
    // pool construction, so the hook runs before pool teardown.
    parallel_detail::setDefaultParallelThreads(threads);
    sched::ensureGlobalPool();
    if (!values.cacheStatsFile.empty())
        std::atexit(writeCacheStatsAtExit);
}

/** Print the standard harness banner: which paper artifact this
 *  regenerates and what shape to expect. */
inline void
banner(const std::string &artifact, const std::string &expectation)
{
    std::cout << "### " << artifact << "\n";
    if (!expectation.empty() && !Table::csvMode())
        std::cout << "# paper shape: " << expectation << "\n";
    std::cout << "\n";
}

} // namespace fasttrack::bench

#endif // FT_BENCH_BENCH_UTIL_HPP
