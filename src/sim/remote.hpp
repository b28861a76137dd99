/**
 * @file
 * Remote sweep execution: the client half of the distributed sweep
 * fabric (docs/distributed.md).
 *
 * When remote endpoints are configured (--remote host:port[,...]),
 * runPoints transparently fans sweep points out to ftd
 * daemons over the framed wire protocol (net/frame.hpp): points are
 * sharded round-robin across endpoints, pipelined within a
 * per-session window, and reassembled strictly by input index — so
 * a remote sweep is byte-identical to the same sweep run
 * in-process, regardless of which node computed which point.
 *
 * Failure semantics: a connection that refuses, times out, or dies
 * mid-stream is retried with exponential backoff
 * (net::backoffDelayMs); the attempt counter resets whenever a
 * connection made progress, so a flaky worker that keeps serving
 * some results is drained rather than abandoned. Points that remain
 * unserved after the retry budget fall back to the local scalar
 * path — a sweep never fails because the fleet did, it only slows
 * down.
 *
 * The message-payload codecs this client and the ftd server share
 * live in sim/run_codec.hpp.
 */

#ifndef FT_SIM_REMOTE_HPP
#define FT_SIM_REMOTE_HPP

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/counters.hpp"
#include "common/flags.hpp"
#include "net/endpoint.hpp"
#include "net/frame.hpp"
#include "sim/run_codec.hpp"
#include "sim/simulation.hpp"
#include "telemetry/metrics.hpp"

namespace fasttrack {

/** Client-side knobs for remote sweep dispatch. */
struct RemoteConfig
{
    std::vector<net::Endpoint> endpoints;
    /** Consecutive no-progress connection attempts per endpoint
     *  before its points fall back to local execution. */
    unsigned maxAttempts = 4;
    /** Exponential backoff schedule between attempts. */
    int backoffInitialMs = 50;
    int backoffCapMs = 2'000;
    /** TCP connect + handshake budget. */
    int connectTimeoutMs = 2'000;
    /** Per-wait budget inside a frame or while sending. */
    int ioTimeoutMs = 10'000;
    /** Budget for the first byte of the next result — covers the
     *  server-side compute of a full batch. */
    int resultWaitMs = 300'000;
    /** Pipeline window: outstanding requests per session (clamped
     *  to the server's granted window at handshake). */
    std::uint32_t window = 64;
    /** Consult/populate this process's sweep cache around the
     *  remote round-trip (tests disable it to force wire traffic). */
    bool useLocalCache = true;
};

/** Install remote endpoints (empty = disable remote dispatch). */
void setRemoteConfig(RemoteConfig config);
RemoteConfig remoteConfig();
void clearRemoteConfig();

/** True when at least one endpoint is configured. */
bool remoteConfigured();

/** The --remote HOST:PORT[,HOST:PORT...] flag row every tool shares:
 *  installs the endpoints it lists with setRemoteConfig. */
Flag remoteFlag(std::string help);

/** Counters of one remote run (a remoteRunPoints or runShardedSim
 *  invocation; a counter set, common/counters.hpp). remoteStats()
 *  reports the most recent run so a second sweep's numbers are its
 *  own, not cumulative totals; remoteLifetimeStats() keeps the
 *  process-wide accumulation. */
struct RemoteStats
{
    /** Points answered by a remote SweepResult frame. */
    std::uint64_t pointsRemote = 0;
    /** Of those, points the daemon served from its blob cache. */
    std::uint64_t remoteCacheHits = 0;
    /** Points answered by this process's own cache pre-pass. */
    std::uint64_t localCacheHits = 0;
    /** Points computed locally after the retry budget ran out. */
    std::uint64_t pointsFallback = 0;
    /** Failed connection attempts (refusal/timeout/handshake). */
    std::uint64_t connectFailures = 0;
    /** Reconnections after a session died mid-stream. */
    std::uint64_t reconnects = 0;
    /** Error frames received (protocol/schema rejections). */
    std::uint64_t errorFrames = 0;
    /** Temporal-shard slices a daemon answered (runShardedSim). */
    std::uint64_t slicesRemote = 0;
    /** Temporal-shard slices computed locally after remote failure. */
    std::uint64_t slicesFallback = 0;

    /** Exported as remote.points_remote and
     *  remote.lifetime.points_remote, ... */
    static constexpr CounterField<RemoteStats> kCounters[] = {
        {&RemoteStats::pointsRemote, "points_remote"},
        {&RemoteStats::remoteCacheHits, "cache_hits"},
        {&RemoteStats::localCacheHits, "local_cache_hits"},
        {&RemoteStats::pointsFallback, "points_fallback"},
        {&RemoteStats::connectFailures, "connect_failures"},
        {&RemoteStats::reconnects, "reconnects"},
        {&RemoteStats::errorFrames, "error_frames"},
        {&RemoteStats::slicesRemote, "slices_remote"},
        {&RemoteStats::slicesFallback, "slices_fallback"},
    };
};

/** Counters of the most recent remote run (see RemoteStats). */
RemoteStats remoteStats();

/** Process-lifetime accumulation across every remote run. */
RemoteStats remoteLifetimeStats();

/** Publish remote.* counters for the most recent run,
 *  remote.lifetime.* accumulations, and the latest telemetry epoch
 *  each of that run's daemons streamed back (as
 *  remote.<host:port>.<metric> gauges — endpoints dropped from the
 *  configuration stop being exported). */
void reportRemoteStats(telemetry::MetricsRegistry &metrics);

/**
 * The remote half of runPoints: compute @p points (distinct, with
 * sweep keys @p keys) as one fan-out over the configured endpoints.
 * Points this process's cache already holds never touch the wire;
 * work the fleet cannot serve falls back to computePoints on the
 * local pool, without a second cache probe. Results are input-ordered
 * and bit-identical to the local path. Precondition:
 * remoteConfigured() and no telemetry sink installed (runPoints
 * guards).
 */
std::vector<SynthResult>
remoteRunPoints(const std::vector<RunPoint> &points,
                const std::vector<std::uint64_t> &keys);

/**
 * Execute one run as a chain of temporal shards of @p shard_cycles
 * run-relative cycles each, round-robined across the configured
 * remote endpoints (docs/distributed.md, "Temporal sharding").
 *
 * The run holds one session per endpoint. A session's first slice
 * ships the run's inputs plus the previous slice's trimmed snapshot
 * in a snapshotRequest message; each later slice on it ships only the
 * key and the snapshot (sliceContinuation). The daemon resumes,
 * advances the slice, and answers with the slice's stats and the
 * next trimmed snapshot. Slice stats are merged via
 * NocStats::merge, so the final result is bit-identical to the
 * uninterrupted local run. A slice whose remote attempts exhaust the
 * retry budget (or whose answer fails validation) is computed
 * locally, and once the fleet has proven dead the remaining slices
 * stay local — a sharded run never yields a wrong or partial result.
 *
 * Preconditions (fatal): config-built single-channel request with
 * exactly one of workload/trace, no device/telemetry/cache/snapshot
 * knobs, and shard_cycles >= 1.
 */
RunResult runShardedSim(const RunRequest &request, Cycle shard_cycles);

/** What runSlice reports besides its answer. */
enum class SliceStatus
{
    ok,
    /** The request's snapshot did not restore. */
    notResumed,
    /** The device could not capture the slice's end state. */
    notCaptured,
};

/**
 * The one temporal-shard slice step, shared by the ftd daemon and
 * runShardedSim's local fallback: resume @p request's snapshot (when
 * it has one), run to min(runMaxCycles, consumed + sliceCycles),
 * capture the end state, decide done, and hand the trimmed next
 * snapshot back in @p out. A snapshot that does not restore is
 * notResumed rather than a fresh run, whose stats would count the
 * run's start twice. Trust checks on @p request are the caller's: the
 * daemon re-derives the key and range-checks the snapshot first.
 */
SliceStatus runSlice(const ShardSliceRequest &request,
                     ShardSliceResult &out);

} // namespace fasttrack

#endif // FT_SIM_REMOTE_HPP
