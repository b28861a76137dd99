/**
 * @file
 * Shared helpers for the paper-reproduction bench harnesses.
 */

#ifndef FT_BENCH_BENCH_UTIL_HPP
#define FT_BENCH_BENCH_UTIL_HPP

#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>

#include "common/parallel.hpp"
#include "common/table.hpp"
#include "net/endpoint.hpp"
#include "sched/work_stealing_pool.hpp"
#include "sim/remote.hpp"
#include "sim/sweep_cache.hpp"
#include "telemetry/metrics.hpp"

namespace fasttrack::bench {

/**
 * Worker-thread count for harnesses that fan out over parallelMap:
 * the --threads override when given, hardware concurrency otherwise.
 */
inline unsigned &
threadOverride()
{
    static unsigned threads = 0; // 0 = use hardware concurrency
    return threads;
}

inline unsigned
workerThreads()
{
    return threadOverride() ? threadOverride()
                            : std::thread::hardware_concurrency();
}

/**
 * Telemetry artifact directory from --telemetry-dir; empty (the
 * default) leaves artifact export off. Harnesses that support
 * observability attach a TelemetrySession whose config().dir is this.
 */
inline std::string &
telemetryDir()
{
    static std::string dir;
    return dir;
}

/** Metrics snapshot period in cycles from --telemetry-epoch. */
inline std::uint64_t &
telemetryEpoch()
{
    static std::uint64_t epoch = 1024;
    return epoch;
}

/** Destination of --cache-stats; empty (the default) disables the
 *  end-of-run scheduler/cache metrics dump. */
inline std::string &
cacheStatsFile()
{
    static std::string file;
    return file;
}

/** Snapshot period in cycles from --snapshot-every (0 = off). Runs
 *  that honour it write checkpoint files (docs/checkpoint.md) into a
 *  per-run subdirectory of snapshotDir(). */
inline std::uint64_t &
snapshotEvery()
{
    static std::uint64_t every = 0;
    return every;
}

/** Snapshot root directory from --snapshot-dir. */
inline std::string &
snapshotDir()
{
    static std::string dir;
    return dir;
}

/** Resume root directory from --resume; harnesses look for the
 *  latest matching snapshot under the same per-run subdirectory
 *  naming they write with. */
inline std::string &
resumeDir()
{
    static std::string dir;
    return dir;
}

/** Temporal-shard slice length from --shard-cycles (0 = off).
 *  Harnesses that honour it run their long single-point simulations
 *  via runShardedSim across the --remote fleet instead of locally
 *  (docs/distributed.md, "Temporal sharding"). */
inline std::uint64_t &
shardCycles()
{
    static std::uint64_t cycles = 0;
    return cycles;
}

/** Publish sweep-cache and pool counters into a registry and write
 *  the `metric,kind,value` summary CSV to @p os. */
inline void
writeCacheStats(std::ostream &os)
{
    telemetry::MetricsRegistry metrics;
    sweepCache().reportTo(metrics);
    sched::WorkStealingPool::global().reportTo(metrics);
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
    std::ofstream os(cacheStatsFile());
    if (!os) {
        std::cerr << "cache-stats: cannot write '" << cacheStatsFile()
                  << "'\n";
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

inline void
usage(const char *prog)
{
    std::cerr
        << "usage: " << prog
        << " [--csv] [--threads N] [--telemetry-dir DIR]"
           " [--telemetry-epoch N] [--result-cache DIR]"
           " [--result-cache-max-bytes N] [--cache-stats FILE]"
           " [--snapshot-every N] [--snapshot-dir DIR] [--resume DIR]"
           " [--remote HOST:PORT[,HOST:PORT...]] [--shard-cycles N]\n"
        << "  --csv                emit tables as CSV (for scripting)\n"
        << "  --threads N          cap parallel sweep workers at N\n"
        << "  --telemetry-dir DIR  export telemetry artifacts (Chrome\n"
        << "                       traces, link heatmaps, metrics CSV)\n"
        << "                       into DIR\n"
        << "  --telemetry-epoch N  metrics snapshot period in cycles\n"
        << "                       (default 1024)\n"
        << "  --result-cache DIR   persist sweep results in DIR and\n"
        << "                       reuse them across invocations\n"
        << "  --result-cache-max-bytes N\n"
        << "                       cap the --result-cache store at N\n"
        << "                       bytes, evicting oldest entries\n"
        << "  --cache-stats FILE   write scheduler/cache counters as\n"
        << "                       CSV (metric,kind,value) at exit\n"
        << "  --snapshot-every N   checkpoint supporting runs every N\n"
        << "                       cycles (needs --snapshot-dir; see\n"
        << "                       docs/checkpoint.md)\n"
        << "  --snapshot-dir DIR   root directory snapshot files are\n"
        << "                       written under (one subdirectory per\n"
        << "                       run)\n"
        << "  --resume DIR         resume runs from the latest matching\n"
        << "                       snapshot under DIR (corrupt or\n"
        << "                       missing snapshots fall back to a\n"
        << "                       fresh run)\n"
        << "  --remote HOST:PORT[,HOST:PORT...]\n"
        << "                       fan sweep points out to ftd daemons\n"
        << "                       (unreachable workers fall back to\n"
        << "                       local execution)\n"
        << "  --shard-cycles N     run long single-point simulations as\n"
        << "                       N-cycle temporal shards across the\n"
        << "                       --remote fleet (needs --remote; see\n"
        << "                       docs/distributed.md)\n";
}

/** Parse shared harness flags: --csv switches every table to CSV
 *  output (for scripting the figure data); --threads N caps the
 *  parallelMap worker count. Unknown flags are an error (exit 2), so
 *  a typo cannot silently run the default configuration. Call first
 *  in main(). */
inline void
parseArgs(int argc, char **argv)
{
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--csv") == 0) {
            Table::setCsvMode(true);
            continue;
        }
        if (std::strcmp(argv[i], "--threads") == 0) {
            char *end = nullptr;
            const long n =
                i + 1 < argc ? std::strtol(argv[i + 1], &end, 10) : 0;
            if (i + 1 >= argc || end == argv[i + 1] || *end != '\0' ||
                n < 1) {
                std::cerr << argv[0]
                          << ": --threads needs a positive integer\n";
                usage(argv[0]);
                std::exit(2);
            }
            threadOverride() = static_cast<unsigned>(n);
            ++i;
            continue;
        }
        if (std::strcmp(argv[i], "--telemetry-dir") == 0) {
            if (i + 1 >= argc || argv[i + 1][0] == '\0') {
                std::cerr << argv[0]
                          << ": --telemetry-dir needs a directory\n";
                usage(argv[0]);
                std::exit(2);
            }
            telemetryDir() = argv[i + 1];
            ++i;
            continue;
        }
        if (std::strcmp(argv[i], "--telemetry-epoch") == 0) {
            char *end = nullptr;
            const long n =
                i + 1 < argc ? std::strtol(argv[i + 1], &end, 10) : 0;
            if (i + 1 >= argc || end == argv[i + 1] || *end != '\0' ||
                n < 1) {
                std::cerr
                    << argv[0]
                    << ": --telemetry-epoch needs a positive integer\n";
                usage(argv[0]);
                std::exit(2);
            }
            telemetryEpoch() = static_cast<std::uint64_t>(n);
            ++i;
            continue;
        }
        if (std::strcmp(argv[i], "--result-cache") == 0) {
            if (i + 1 >= argc || argv[i + 1][0] == '\0') {
                std::cerr << argv[0]
                          << ": --result-cache needs a directory\n";
                usage(argv[0]);
                std::exit(2);
            }
            sweepCache().setDir(argv[i + 1]);
            ++i;
            continue;
        }
        if (std::strcmp(argv[i], "--result-cache-max-bytes") == 0) {
            char *end = nullptr;
            const long long n =
                i + 1 < argc ? std::strtoll(argv[i + 1], &end, 10)
                             : 0;
            if (i + 1 >= argc || end == argv[i + 1] || *end != '\0' ||
                n < 1) {
                std::cerr << argv[0]
                          << ": --result-cache-max-bytes needs a"
                             " positive byte count\n";
                usage(argv[0]);
                std::exit(2);
            }
            sweepCache().setMaxDiskBytes(
                static_cast<std::uint64_t>(n));
            ++i;
            continue;
        }
        if (std::strcmp(argv[i], "--remote") == 0) {
            std::string error;
            std::vector<net::Endpoint> endpoints;
            if (i + 1 >= argc ||
                !net::parseEndpointList(argv[i + 1], endpoints,
                                        error)) {
                std::cerr << argv[0] << ": --remote: "
                          << (i + 1 >= argc
                                  ? "needs HOST:PORT[,HOST:PORT...]"
                                  : error)
                          << "\n";
                usage(argv[0]);
                std::exit(2);
            }
            RemoteConfig remote;
            remote.endpoints = std::move(endpoints);
            setRemoteConfig(std::move(remote));
            ++i;
            continue;
        }
        if (std::strcmp(argv[i], "--shard-cycles") == 0) {
            char *end = nullptr;
            const long long n =
                i + 1 < argc ? std::strtoll(argv[i + 1], &end, 10)
                             : 0;
            if (i + 1 >= argc || end == argv[i + 1] || *end != '\0' ||
                n < 1 ||
                static_cast<std::uint64_t>(n) > kMaxSliceCycles) {
                std::cerr
                    << argv[0]
                    << ": --shard-cycles needs a positive integer <= "
                    << kMaxSliceCycles << "\n";
                usage(argv[0]);
                std::exit(2);
            }
            shardCycles() = static_cast<std::uint64_t>(n);
            ++i;
            continue;
        }
        if (std::strcmp(argv[i], "--snapshot-every") == 0) {
            char *end = nullptr;
            const long long n =
                i + 1 < argc ? std::strtoll(argv[i + 1], &end, 10)
                             : 0;
            if (i + 1 >= argc || end == argv[i + 1] || *end != '\0' ||
                n < 1) {
                std::cerr
                    << argv[0]
                    << ": --snapshot-every needs a positive integer\n";
                usage(argv[0]);
                std::exit(2);
            }
            snapshotEvery() = static_cast<std::uint64_t>(n);
            ++i;
            continue;
        }
        if (std::strcmp(argv[i], "--snapshot-dir") == 0) {
            if (i + 1 >= argc || argv[i + 1][0] == '\0') {
                std::cerr << argv[0]
                          << ": --snapshot-dir needs a directory\n";
                usage(argv[0]);
                std::exit(2);
            }
            snapshotDir() = argv[i + 1];
            ++i;
            continue;
        }
        if (std::strcmp(argv[i], "--resume") == 0) {
            if (i + 1 >= argc || argv[i + 1][0] == '\0') {
                std::cerr << argv[0]
                          << ": --resume needs a directory\n";
                usage(argv[0]);
                std::exit(2);
            }
            resumeDir() = argv[i + 1];
            ++i;
            continue;
        }
        if (std::strcmp(argv[i], "--cache-stats") == 0) {
            if (i + 1 >= argc || argv[i + 1][0] == '\0') {
                std::cerr << argv[0]
                          << ": --cache-stats needs a file\n";
                usage(argv[0]);
                std::exit(2);
            }
            cacheStatsFile() = argv[i + 1];
            ++i;
            continue;
        }
        std::cerr << argv[0] << ": unknown flag '" << argv[i] << "'\n";
        usage(argv[0]);
        std::exit(2);
    }

    if (snapshotEvery() != 0 && snapshotDir().empty()) {
        std::cerr << argv[0]
                  << ": --snapshot-every needs --snapshot-dir\n";
        usage(argv[0]);
        std::exit(2);
    }
    if (shardCycles() != 0 && !remoteConfigured()) {
        std::cerr << argv[0] << ": --shard-cycles needs --remote\n";
        usage(argv[0]);
        std::exit(2);
    }

    // Route --threads into the process-wide parallelMap default
    // (sweeps pick it up without per-call plumbing), size the
    // persistent pool from it, then register the stats hook — after
    // pool construction, so the hook runs before pool teardown.
    parallel_detail::setDefaultParallelThreads(threadOverride());
    sched::ensureGlobalPool();
    if (!cacheStatsFile().empty())
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
