/**
 * @file
 * ftd_client — command-line client for the ftd sweep daemon.
 *
 * Runs an injection-rate sweep against one or more daemons and
 * prints the per-point results as CSV, exercising the full remote
 * path (handshake, pipelining, retry/backoff, local fallback). The
 * output is byte-identical to running the same sweep in-process, so
 * scripts can diff the two to validate a deployment:
 *
 *   ftd --port 0 &              # note the printed port
 *   ftd_client --remote 127.0.0.1:PORT --n 8
 *
 * With --no-local-cache the client skips its own sweep cache, forcing
 * every point over the wire (useful to measure daemon cache hits).
 */

#include <cstdint>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "common/flags.hpp"
#include "sim/experiment.hpp"
#include "sim/remote.hpp"
#include "sim/sweep_cache.hpp"
#include "telemetry/metrics.hpp"

int
main(int argc, char **argv)
{
    using namespace fasttrack;

    std::uint32_t n = 8, d = 2, r = 2;
    bool hoplite = false;
    std::uint32_t packets = 1024;
    std::uint64_t seed = 1;
    bool localCache = true;
    std::string statsFile;

    const FlagTable flags = {
        remoteFlag("ftd endpoints to fan out to").mandatory(),
        integerFlag("--n", "N", "torus side (default 8)", n, 1),
        integerFlag("--d", "D", "express link length (default 2)", d, 1),
        integerFlag("--r", "R", "depopulation factor (default 2)", r, 1),
        toggleFlag("--hoplite", "sweep the Hoplite baseline instead",
                   [&hoplite] { hoplite = true; }),
        integerFlag("--packets", "N", "packets per PE (default 1024)",
                    packets, 1),
        integerFlag("--seed", "N", "base workload seed (default 1)", seed,
                    1),
        toggleFlag("--no-local-cache",
                   "skip the client-side sweep cache so every point "
                   "travels the wire",
                   [&localCache] { localCache = false; }),
        textFlag("--stats", "FILE",
                 "write remote/client counters as CSV", statsFile),
    };
    parseFlagsOrExit(flags, argc, argv);

    // A NoC the flag ranges let through but NocConfig refuses exits 2
    // naming the flag; at R = 1 only the rules on N and D apply.
    const auto check = [&](const char *flag, const NocConfig &config) {
        const std::string rule = config.validationError();
        if (!rule.empty())
            exitWithUsage(argv[0], detail::concat(flag, ": ", rule),
                          flagUsage(argv[0], flags));
    };
    check("--n", NocConfig{.n = n, .variant = NocVariant::hoplite});
    if (!hoplite) {
        check("--d", NocConfig{.n = n, .d = d, .r = 1,
                               .variant = NocVariant::ftFull});
        check("--r", NocConfig{.n = n, .d = d, .r = r,
                               .variant = NocVariant::ftFull});
    }

    RemoteConfig remote = remoteConfig();
    remote.useLocalCache = localCache;
    setRemoteConfig(std::move(remote));

    NocUnderTest nut;
    nut.config = hoplite ? NocConfig::hoplite(n)
                         : NocConfig::fastTrack(n, d, r);
    nut.label = nut.config.describe();

    const std::vector<SweepPoint> points = injectionSweep(
        nut, TrafficPattern::random, injectionRateGrid(), packets,
        seed);

    std::cout << "config,rate,sustained,avg_latency,worst_latency,"
                 "completed\n";
    for (const SweepPoint &p : points) {
        std::cout << nut.label << "," << p.rate << ","
                  << p.result.sustainedRate() << ","
                  << p.result.avgLatency() << ","
                  << p.result.worstLatency() << ","
                  << (p.result.completed ? 1 : 0) << "\n";
    }

    if (!statsFile.empty()) {
        std::ofstream os(statsFile);
        if (!os) {
            std::cerr << argv[0] << ": --stats: cannot write '"
                      << statsFile << "'\n";
            return 1;
        }
        telemetry::MetricsRegistry metrics;
        reportRemoteStats(metrics);
        sweepCache().reportTo(metrics);
        metrics.writeSummary(os);
    }
    return 0;
}
