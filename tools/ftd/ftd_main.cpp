/**
 * @file
 * ftd — the FastTrack sweep daemon: simulation-as-a-service.
 *
 * Binds the FtdServer (sim/ftd_server.hpp) on a TCP port and serves
 * sweepRequest frames until SIGINT/SIGTERM, sharing this host's
 * work-stealing pool and blob cache across every connected client.
 * With --result-cache the cache survives restarts, and because sweep
 * keys are content-addressed a point any client ever computed is a
 * cache hit for all of them.
 *
 * Prints `ftd: listening on HOST:PORT` once serving (scripts parse
 * this to discover the port when started with --port 0).
 */

#include <csignal>
#include <cstdint>
#include <chrono>
#include <fstream>
#include <iostream>
#include <limits>
#include <string>
#include <thread>

#include "common/flags.hpp"
#include "common/parallel.hpp"
#include "sched/work_stealing_pool.hpp"
#include "sim/ftd_server.hpp"
#include "sim/sweep_cache.hpp"
#include "telemetry/metrics.hpp"

namespace {

volatile std::sig_atomic_t g_stop = 0;

void
handleSignal(int)
{
    g_stop = 1;
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace fasttrack;

    net::ServerConfig config;
    config.port = 7441;
    unsigned threads = 0;
    std::string cacheStatsFile;
    const FlagTable flags = {
        textFlag("--host", "H", "bind address (default 127.0.0.1)",
                 config.host),
        integerFlag("--port", "N",
                    "TCP port, 0 = ephemeral (default 7441)", config.port,
                    0),
        integerFlag("--threads", "N", "cap pool workers at N", threads, 1),
        integerFlag("--max-sessions", "N",
                    "concurrent client sessions (default 8)",
                    config.maxSessions, 1),
        integerFlag("--idle-timeout-ms", "N",
                    "drop sessions idle this long (default 30000)",
                    config.idleTimeoutMs, 1),
        textFlag("--result-cache", "DIR", "persist sweep results in DIR",
                 [](const std::string &dir) {
                     sweepCache().setDir(dir);
                     return std::string();
                 }),
        integerFlag("--result-cache-max-bytes", "N",
                    "cap the disk store, evicting oldest", 1,
                    std::numeric_limits<std::uint64_t>::max(),
                    [](std::uint64_t n) {
                        sweepCache().setMaxDiskBytes(n);
                    }),
        textFlag("--cache-stats", "FILE",
                 "write service/cache counters as CSV on shutdown",
                 cacheStatsFile),
    };
    parseFlagsOrExit(flags, argc, argv);

    parallel_detail::setDefaultParallelThreads(threads);
    sched::ensureGlobalPool();

    FtdServer server(config);
    std::string error;
    if (!server.start(error)) {
        std::cerr << argv[0] << ": cannot serve: " << error << "\n";
        return 1;
    }
    std::cout << "ftd: listening on " << config.host << ":"
              << server.boundPort() << std::endl;

    std::signal(SIGINT, handleSignal);
    std::signal(SIGTERM, handleSignal);
    while (g_stop == 0)
        std::this_thread::sleep_for(std::chrono::milliseconds(100));

    std::cout << "ftd: shutting down\n";
    server.stop();

    if (!cacheStatsFile.empty()) {
        std::ofstream os(cacheStatsFile);
        if (!os) {
            std::cerr << argv[0] << ": cache-stats: cannot write '"
                      << cacheStatsFile << "'\n";
            return 1;
        }
        telemetry::MetricsRegistry metrics;
        server.reportTo(metrics);
        metrics.writeSummary(os);
    }
    return 0;
}
