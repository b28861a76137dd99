/**
 * @file
 * Counter sets (common/counters.hpp): each set's kCounters must pair
 * every field with its own export name, and the tally must count
 * exactly under concurrent bumps. The names themselves are pinned by
 * Distributed.ExportedCounterNamesArePinned.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "common/counters.hpp"
#include "net/server.hpp"
#include "sched/blob_cache.hpp"
#include "sched/work_stealing_pool.hpp"
#include "sim/ftd_server.hpp"
#include "sim/remote.hpp"
#include "telemetry/metrics.hpp"

namespace fasttrack {
namespace {

TEST(Counters, EveryNameReadsItsOwnField)
{
    // Every field of every set holds a value no other field holds, so
    // a name paired with the wrong field reads the wrong value.
    telemetry::MetricsRegistry metrics;
    telemetry::exportCounters(metrics, "sweep_cache.",
                              sched::BlobCache::Stats{.hits = 1,
                                                      .misses = 2,
                                                      .diskHits = 3,
                                                      .stores = 4,
                                                      .diskWrites = 5,
                                                      .corrupt = 6,
                                                      .bypasses = 7,
                                                      .evictions = 8,
                                                      .memoryEvictions = 9});
    telemetry::exportCounters(
        metrics, "sched.pool.",
        sched::WorkStealingPool::Counters{.jobs = 11,
                                          .inlineJobs = 12,
                                          .tasks = 13,
                                          .steals = 14,
                                          .stolenTasks = 15});
    telemetry::exportCounters(metrics, "ftd.",
                              FtdServer::Stats{.pointsServed = 21,
                                               .cacheHits = 22,
                                               .badRequests = 23,
                                               .slicesServed = 24});
    telemetry::exportCounters(metrics, "ftd.net.",
                              net::ServerStats{.sessionsAccepted = 31,
                                               .sessionsRejected = 32,
                                               .framesIn = 33,
                                               .framesOut = 34,
                                               .protocolErrors = 35,
                                               .idleTimeouts = 36,
                                               .requestsServed = 37,
                                               .injectedDrops = 38});
    telemetry::exportCounters(metrics, "remote.",
                              RemoteStats{.pointsRemote = 41,
                                          .remoteCacheHits = 42,
                                          .localCacheHits = 43,
                                          .pointsFallback = 44,
                                          .connectFailures = 45,
                                          .reconnects = 46,
                                          .errorFrames = 47,
                                          .slicesRemote = 48,
                                          .slicesFallback = 49});

    const std::map<std::string, std::uint64_t> expected = {
        {"sweep_cache.hits", 1},
        {"sweep_cache.misses", 2},
        {"sweep_cache.disk_hits", 3},
        {"sweep_cache.stores", 4},
        {"sweep_cache.disk_writes", 5},
        {"sweep_cache.corrupt", 6},
        {"sweep_cache.bypasses", 7},
        {"sweep_cache.evictions", 8},
        {"sweep_cache.memory_evictions", 9},
        {"sched.pool.jobs", 11},
        {"sched.pool.inline_jobs", 12},
        {"sched.pool.tasks", 13},
        {"sched.pool.steals", 14},
        {"sched.pool.stolen_tasks", 15},
        {"ftd.points_served", 21},
        {"ftd.cache_hits", 22},
        {"ftd.bad_requests", 23},
        {"ftd.slices_served", 24},
        {"ftd.net.sessions_accepted", 31},
        {"ftd.net.sessions_rejected", 32},
        {"ftd.net.frames_in", 33},
        {"ftd.net.frames_out", 34},
        {"ftd.net.protocol_errors", 35},
        {"ftd.net.idle_timeouts", 36},
        {"ftd.net.requests_served", 37},
        {"ftd.net.injected_drops", 38},
        {"remote.points_remote", 41},
        {"remote.cache_hits", 42},
        {"remote.local_cache_hits", 43},
        {"remote.points_fallback", 44},
        {"remote.connect_failures", 45},
        {"remote.reconnects", 46},
        {"remote.error_frames", 47},
        {"remote.slices_remote", 48},
        {"remote.slices_fallback", 49},
    };
    metrics.snapshot(0);
    std::map<std::string, std::uint64_t> exported;
    for (const auto &[name, value] : metrics.epochs().back().values)
        exported[name] = static_cast<std::uint64_t>(value);
    EXPECT_EQ(exported, expected);
}

TEST(Counters, TallyCountsConcurrentBumpsExactly)
{
    CounterTally<RemoteStats> tally;
    constexpr int kThreads = 4;
    constexpr int kBumps = 10'000;
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t)
        threads.emplace_back([&tally] {
            for (int i = 0; i < kBumps; ++i) {
                tally.bump(&RemoteStats::pointsRemote);
                tally.bump(&RemoteStats::slicesFallback, 3);
            }
        });
    for (std::thread &thread : threads)
        thread.join();

    RemoteStats sum = tally.snapshot();
    EXPECT_EQ(sum.pointsRemote, std::uint64_t{kThreads} * kBumps);
    EXPECT_EQ(sum.slicesFallback, std::uint64_t{kThreads} * kBumps * 3);
    EXPECT_EQ(sum.errorFrames, 0u);

    addCounters(sum, RemoteStats{.errorFrames = 5, .slicesFallback = 1});
    EXPECT_EQ(sum.pointsRemote, std::uint64_t{kThreads} * kBumps);
    EXPECT_EQ(sum.errorFrames, 5u);
    EXPECT_EQ(sum.slicesFallback, std::uint64_t{kThreads} * kBumps * 3 + 1);
}

} // namespace
} // namespace fasttrack
