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
#include <cstdlib>
#include <cstring>
#include <chrono>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>

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

void
usage(const char *prog)
{
    std::cerr
        << "usage: " << prog
        << " [--host H] [--port N] [--threads N]"
           " [--max-sessions N] [--idle-timeout-ms N]"
           " [--result-cache DIR] [--result-cache-max-bytes N]"
           " [--cache-stats FILE] [--drop-after-frames N]\n"
        << "  --host H             bind address (default 127.0.0.1)\n"
        << "  --port N             TCP port, 0 = ephemeral"
           " (default 7441)\n"
        << "  --threads N          cap pool workers at N\n"
        << "  --max-sessions N     concurrent client sessions"
           " (default 8)\n"
        << "  --idle-timeout-ms N  drop sessions idle this long"
           " (default 30000)\n"
        << "  --result-cache DIR   persist sweep results in DIR\n"
        << "  --result-cache-max-bytes N\n"
        << "                       cap the disk store, evicting oldest\n"
        << "  --cache-stats FILE   write service/cache counters as CSV\n"
        << "                       on shutdown\n"
        << "  --drop-after-frames N\n"
        << "                       fault injection: hard-close every\n"
        << "                       session after N response frames\n";
}

long long
parsePositive(const char *prog, int argc, char **argv, int i,
              const char *flag, long long min_value)
{
    char *end = nullptr;
    const long long n =
        i + 1 < argc ? std::strtoll(argv[i + 1], &end, 10) : 0;
    if (i + 1 >= argc || end == argv[i + 1] || *end != '\0' ||
        n < min_value) {
        std::cerr << prog << ": " << flag << " needs an integer >= "
                  << min_value << "\n";
        usage(prog);
        std::exit(2);
    }
    return n;
}

const char *
parseValue(const char *prog, int argc, char **argv, int i,
           const char *flag)
{
    if (i + 1 >= argc || argv[i + 1][0] == '\0') {
        std::cerr << prog << ": " << flag << " needs a value\n";
        usage(prog);
        std::exit(2);
    }
    return argv[i + 1];
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

    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--host") == 0) {
            config.host = parseValue(argv[0], argc, argv, i, "--host");
            ++i;
        } else if (std::strcmp(argv[i], "--port") == 0) {
            const long long n = parsePositive(argv[0], argc, argv, i,
                                              "--port", 0);
            if (n > 65535) {
                std::cerr << argv[0]
                          << ": --port must be in 0..65535\n";
                usage(argv[0]);
                return 2;
            }
            config.port = static_cast<std::uint16_t>(n);
            ++i;
        } else if (std::strcmp(argv[i], "--threads") == 0) {
            threads = static_cast<unsigned>(parsePositive(
                argv[0], argc, argv, i, "--threads", 1));
            ++i;
        } else if (std::strcmp(argv[i], "--max-sessions") == 0) {
            config.maxSessions = static_cast<std::uint32_t>(
                parsePositive(argv[0], argc, argv, i,
                              "--max-sessions", 1));
            ++i;
        } else if (std::strcmp(argv[i], "--idle-timeout-ms") == 0) {
            config.idleTimeoutMs = static_cast<int>(parsePositive(
                argv[0], argc, argv, i, "--idle-timeout-ms", 1));
            ++i;
        } else if (std::strcmp(argv[i], "--result-cache") == 0) {
            sweepCache().setDir(
                parseValue(argv[0], argc, argv, i, "--result-cache"));
            ++i;
        } else if (std::strcmp(argv[i],
                               "--result-cache-max-bytes") == 0) {
            sweepCache().setMaxDiskBytes(static_cast<std::uint64_t>(
                parsePositive(argv[0], argc, argv, i,
                              "--result-cache-max-bytes", 1)));
            ++i;
        } else if (std::strcmp(argv[i], "--cache-stats") == 0) {
            cacheStatsFile =
                parseValue(argv[0], argc, argv, i, "--cache-stats");
            ++i;
        } else if (std::strcmp(argv[i], "--drop-after-frames") == 0) {
            config.dropAfterFrames =
                static_cast<std::uint64_t>(parsePositive(
                    argv[0], argc, argv, i, "--drop-after-frames", 1));
            ++i;
        } else {
            std::cerr << argv[0] << ": unknown flag '" << argv[i]
                      << "'\n";
            usage(argv[0]);
            return 2;
        }
    }

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
