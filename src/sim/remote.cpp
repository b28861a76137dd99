#include "sim/remote.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <thread>
#include <utility>

#include "common/logging.hpp"
#include "common/parallel.hpp"
#include "common/thread_annotations.hpp"
#include "net/socket.hpp"
#include "net/wire.hpp"
#include "sched/work_stealing_pool.hpp"
#include "sim/sweep_cache.hpp"
#include "traffic/injector.hpp"
#include "traffic/trace_replay.hpp"

namespace fasttrack {

namespace {

/** Where a point's result came from (one owner thread per slot). */
constexpr std::uint8_t kOriginPending = 0;
constexpr std::uint8_t kOriginLocalCache = 1;
constexpr std::uint8_t kOriginRemote = 2;

/** After saying goodbye, wait up to this long for each further frame
 *  before giving up on the daemon's EOF. The daemon hangs up on
 *  goodbye, so this only bounds a peer that never does. */
constexpr int kEpochDrainMs = 250;

Mutex g_configMutex;
RemoteConfig g_config FT_GUARDED_BY(g_configMutex);

/**
 * Counters of one in-flight remote run (a remoteBatchedRuns or
 * runShardedSim invocation). Worker threads bump the atomics; the
 * run publishes itself once complete (publishRun), becoming the
 * "most recent run" snapshot and an increment of the lifetime
 * totals. Instance-scoping (instead of the historical process
 * globals) is what makes a second sweep's remoteStats() its own
 * numbers; scoping the epoch map to the run is what stops endpoints
 * dropped from --remote from being re-exported forever.
 */
struct RunCounters
{
    std::atomic<std::uint64_t> pointsRemote{0};
    std::atomic<std::uint64_t> remoteCacheHits{0};
    std::atomic<std::uint64_t> localCacheHits{0};
    std::atomic<std::uint64_t> pointsFallback{0};
    std::atomic<std::uint64_t> connectFailures{0};
    std::atomic<std::uint64_t> reconnects{0};
    std::atomic<std::uint64_t> errorFrames{0};
    std::atomic<std::uint64_t> slicesRemote{0};
    std::atomic<std::uint64_t> slicesFallback{0};

    Mutex epochMutex;
    /** Latest telemetry epoch per endpoint label, this run only. */
    std::map<std::string, std::map<std::string, double>> epochs
        FT_GUARDED_BY(epochMutex);

    RemoteStats snapshot() const
    {
        RemoteStats s;
        s.pointsRemote = pointsRemote.load(std::memory_order_relaxed);
        s.remoteCacheHits =
            remoteCacheHits.load(std::memory_order_relaxed);
        s.localCacheHits =
            localCacheHits.load(std::memory_order_relaxed);
        s.pointsFallback =
            pointsFallback.load(std::memory_order_relaxed);
        s.connectFailures =
            connectFailures.load(std::memory_order_relaxed);
        s.reconnects = reconnects.load(std::memory_order_relaxed);
        s.errorFrames = errorFrames.load(std::memory_order_relaxed);
        s.slicesRemote = slicesRemote.load(std::memory_order_relaxed);
        s.slicesFallback =
            slicesFallback.load(std::memory_order_relaxed);
        return s;
    }

    void recordEpoch(const std::string &label,
                     std::map<std::string, double> values)
    {
        MutexLock lk(epochMutex);
        epochs[label] = std::move(values);
    }
};

Mutex g_statsMutex;
/** Most recent completed run (what remoteStats() reports). */
RemoteStats g_lastRun FT_GUARDED_BY(g_statsMutex);
/** Accumulation across every run (remoteLifetimeStats()). */
RemoteStats g_lifetime FT_GUARDED_BY(g_statsMutex);
/** Epoch gauges of the most recent run's endpoints only. */
std::map<std::string, std::map<std::string, double>>
    g_lastRunEpochs FT_GUARDED_BY(g_statsMutex);

void
publishRun(RunCounters &run)
{
    const RemoteStats s = run.snapshot();
    MutexLock lk(g_statsMutex);
    g_lastRun = s;
    g_lifetime.pointsRemote += s.pointsRemote;
    g_lifetime.remoteCacheHits += s.remoteCacheHits;
    g_lifetime.localCacheHits += s.localCacheHits;
    g_lifetime.pointsFallback += s.pointsFallback;
    g_lifetime.connectFailures += s.connectFailures;
    g_lifetime.reconnects += s.reconnects;
    g_lifetime.errorFrames += s.errorFrames;
    g_lifetime.slicesRemote += s.slicesRemote;
    g_lifetime.slicesFallback += s.slicesFallback;
    MutexLock le(run.epochMutex);
    g_lastRunEpochs = std::move(run.epochs);
}

void
bump(std::atomic<std::uint64_t> &counter, std::uint64_t by = 1)
{
    counter.fetch_add(by, std::memory_order_relaxed);
}

/**
 * One connection's worth of work: connect, handshake, pipeline the
 * points of @p remaining, harvest results. Serviced indices are
 * removed from @p remaining; @p permanent is set when the endpoint
 * rejected us for a reason retrying cannot fix (version/schema).
 */
/**
 * Connect to @p endpoint and run the hello/helloAck handshake.
 * Returns an invalid socket on failure; @p permanent is set when the
 * endpoint rejected us for a reason retrying cannot fix. On success
 * @p window holds the granted pipeline window.
 */
net::Socket
connectAndHandshake(const RemoteConfig &cfg,
                    const net::Endpoint &endpoint, RunCounters &run,
                    std::uint32_t &window, bool &permanent)
{
    std::string error;
    net::Socket sock = net::connectTo(endpoint.host, endpoint.port,
                                      cfg.connectTimeoutMs, error);
    if (!sock.valid()) {
        bump(run.connectFailures);
        return net::Socket();
    }

    net::Frame hello;
    hello.type = net::MessageType::hello;
    net::WireWriter hw;
    hw.u32(net::kWireVersion);
    hw.u32(kSweepCacheSchema);
    hw.u32(cfg.window);
    hello.payload = hw.take();
    net::Frame ack;
    if (net::sendFrame(sock, hello, cfg.ioTimeoutMs) !=
            net::FrameStatus::ok ||
        net::recvFrame(sock, ack, cfg.connectTimeoutMs,
                       cfg.ioTimeoutMs) != net::FrameStatus::ok) {
        bump(run.connectFailures);
        return net::Socket();
    }
    if (ack.type == net::MessageType::error) {
        bump(run.errorFrames);
        bump(run.connectFailures);
        std::uint32_t code = 0;
        std::string message;
        if (net::parseErrorFrame(ack, code, message))
            permanent = code == net::kErrBadVersion ||
                        code == net::kErrBadSchema;
        return net::Socket();
    }
    std::uint32_t version = 0, schema = 0, granted = 0;
    net::WireReader r(ack.payload);
    if (ack.type != net::MessageType::helloAck || !r.u32(version) ||
        !r.u32(schema) || !r.u32(granted) || !r.atEnd() ||
        granted == 0) {
        bump(run.connectFailures);
        return net::Socket();
    }
    window = std::min(cfg.window, granted);
    return sock;
}

/**
 * Count one metricsEpoch frame of a session that has sent @p sent
 * requests, recording its gauges; false when it is a rogue frame.
 * The daemon answers every batch with exactly one epoch and every
 * batch holds at least one request, so a session is never owed more
 * epochs than it sent requests. Counting them, rather than timing
 * them, is what stops a peer streaming epochs from holding the
 * client forever: each epoch would otherwise restart the wait.
 */
bool
takeEpoch(const net::Frame &frame, const net::Endpoint &endpoint,
          RunCounters &run, std::size_t &epochs, std::size_t sent)
{
    if (++epochs > sent)
        return false;
    std::map<std::string, double> values;
    if (decodeMetricsPayload(frame.payload, values))
        run.recordEpoch(endpoint.label(), std::move(values));
    return true;
}

/**
 * Part a session that has sent @p sent requests and seen @p epochs:
 * say goodbye at once, then read to the daemon's EOF, recording any
 * epochs still in flight. The client cannot tell how many batches the
 * daemon cut its requests into, so it never waits for an epoch; the
 * daemon hangs up on goodbye instead. takeEpoch still cuts off a peer
 * that streams epochs, and kEpochDrainMs one that goes silent without
 * hanging up.
 */
void
partSession(const RemoteConfig &cfg, const net::Endpoint &endpoint,
            net::Socket &sock, RunCounters &run, std::size_t epochs,
            std::size_t sent)
{
    net::Frame frame;
    frame.type = net::MessageType::goodbye;
    if (net::sendFrame(sock, frame, cfg.ioTimeoutMs) !=
        net::FrameStatus::ok)
        return;
    while (net::recvFrame(sock, frame, kEpochDrainMs,
                          cfg.ioTimeoutMs) == net::FrameStatus::ok &&
           frame.type == net::MessageType::metricsEpoch)
        if (!takeEpoch(frame, endpoint, run, epochs, sent))
            return;
}

void
serveConnection(const RemoteConfig &cfg, const net::Endpoint &endpoint,
                std::vector<std::size_t> &remaining,
                const std::vector<std::vector<std::uint8_t>> &payloads,
                std::vector<SynthResult> &results,
                std::vector<std::uint8_t> &origin,
                std::vector<std::uint8_t> &remote_hit, RunCounters &run,
                bool &permanent)
{
    std::uint32_t window = 0;
    net::Socket sock = connectAndHandshake(cfg, endpoint, run, window,
                                           permanent);
    if (!sock.valid())
        return;

    // --- Pipeline --------------------------------------------------
    std::size_t next = 0; // next entry of `remaining` to send
    std::size_t inflight = 0;
    std::size_t epochs = 0;
    bool dead = false;
    while (!dead) {
        while (inflight < window && next < remaining.size()) {
            const std::size_t idx = remaining[next];
            net::Frame request;
            request.type = net::MessageType::sweepRequest;
            request.requestId = idx;
            request.payload = payloads[idx];
            if (net::sendFrame(sock, request, cfg.ioTimeoutMs) !=
                net::FrameStatus::ok) {
                dead = true;
                break;
            }
            ++inflight;
            ++next;
        }
        if (dead || inflight == 0)
            break;

        net::Frame frame;
        if (net::recvFrame(sock, frame, cfg.resultWaitMs,
                           cfg.ioTimeoutMs) != net::FrameStatus::ok)
            break;
        if (frame.type == net::MessageType::metricsEpoch) {
            if (!takeEpoch(frame, endpoint, run, epochs, next))
                break;
            continue;
        }
        if (frame.type == net::MessageType::error) {
            bump(run.errorFrames);
            std::uint32_t code = 0;
            std::string message;
            if (net::parseErrorFrame(frame, code, message)) {
                permanent = code == net::kErrBadVersion ||
                            code == net::kErrBadSchema;
                // A per-request rejection: that point falls back
                // locally, the session can keep serving the rest.
                if (code == net::kErrBadRequest) {
                    --inflight;
                    continue;
                }
            }
            break;
        }
        if (frame.type != net::MessageType::sweepResult)
            break;
        std::uint32_t point = 0;
        bool hit = false;
        SynthResult result;
        if (!decodeSweepResultPayload(frame.payload, point, hit,
                                      result))
            break;
        const std::size_t idx =
            static_cast<std::size_t>(frame.requestId);
        // The id must name a point this session actually sent and
        // not yet received; anything else is a rogue peer.
        const auto sentEnd = remaining.begin() +
                             static_cast<std::ptrdiff_t>(next);
        if (point != frame.requestId ||
            std::find(remaining.begin(), sentEnd, idx) == sentEnd ||
            origin[idx] != kOriginPending)
            break;
        results[idx] = result;
        remote_hit[idx] = hit ? 1 : 0;
        origin[idx] = kOriginRemote;
        --inflight;
    }

    // Strip what this connection served.
    std::erase_if(remaining, [&origin](std::size_t idx) {
        return origin[idx] != kOriginPending;
    });

    // Part cleanly, collecting the final batch's trailing epoch.
    if (remaining.empty())
        partSession(cfg, endpoint, sock, run, epochs, next);
}

/** Drive one endpoint until its points are served, the retry budget
 *  is exhausted, or the endpoint proves permanently incompatible. */
void
runEndpointWorker(const RemoteConfig &cfg,
                  const net::Endpoint &endpoint,
                  std::vector<std::size_t> points,
                  const std::vector<std::vector<std::uint8_t>> &payloads,
                  std::vector<SynthResult> &results,
                  std::vector<std::uint8_t> &origin,
                  std::vector<std::uint8_t> &remote_hit,
                  RunCounters &run)
{
    unsigned failures = 0; // consecutive attempts with no progress
    while (!points.empty() && failures < cfg.maxAttempts) {
        if (failures > 0) {
            bump(run.reconnects);
            std::this_thread::sleep_for(std::chrono::milliseconds(
                net::backoffDelayMs(failures, cfg.backoffInitialMs,
                                    cfg.backoffCapMs)));
        }
        bool permanent = false;
        const std::size_t before = points.size();
        serveConnection(cfg, endpoint, points, payloads, results,
                        origin, remote_hit, run, permanent);
        if (permanent)
            break;
        // Progress resets the budget: a flaky worker that keeps
        // serving some of each window gets drained, not abandoned.
        failures = points.size() < before ? 1 : failures + 1;
        if (points.size() < before && points.empty())
            break;
    }
}

} // namespace

void
setRemoteConfig(RemoteConfig config)
{
    MutexLock lk(g_configMutex);
    g_config = std::move(config);
}

RemoteConfig
remoteConfig()
{
    MutexLock lk(g_configMutex);
    return g_config;
}

void
clearRemoteConfig()
{
    MutexLock lk(g_configMutex);
    g_config = RemoteConfig{};
}

bool
remoteConfigured()
{
    MutexLock lk(g_configMutex);
    return !g_config.endpoints.empty();
}

Flag
remoteFlag(std::string help)
{
    return textFlag("--remote", "HOST:PORT[,HOST:PORT...]", std::move(help),
                    [](const std::string &list) {
                        RemoteConfig remote;
                        std::string error;
                        if (net::parseEndpointList(list, remote.endpoints,
                                                   error))
                            setRemoteConfig(std::move(remote));
                        return error;
                    });
}

RemoteStats
remoteStats()
{
    MutexLock lk(g_statsMutex);
    return g_lastRun;
}

RemoteStats
remoteLifetimeStats()
{
    MutexLock lk(g_statsMutex);
    return g_lifetime;
}

namespace {

void
reportCounterSet(telemetry::MetricsRegistry &metrics,
                 const std::string &prefix, const RemoteStats &s)
{
    metrics.counter(prefix + "points_remote") = s.pointsRemote;
    metrics.counter(prefix + "cache_hits") = s.remoteCacheHits;
    metrics.counter(prefix + "local_cache_hits") = s.localCacheHits;
    metrics.counter(prefix + "points_fallback") = s.pointsFallback;
    metrics.counter(prefix + "connect_failures") = s.connectFailures;
    metrics.counter(prefix + "reconnects") = s.reconnects;
    metrics.counter(prefix + "error_frames") = s.errorFrames;
    metrics.counter(prefix + "slices_remote") = s.slicesRemote;
    metrics.counter(prefix + "slices_fallback") = s.slicesFallback;
}

} // namespace

void
reportRemoteStats(telemetry::MetricsRegistry &metrics)
{
    MutexLock lk(g_statsMutex);
    reportCounterSet(metrics, "remote.", g_lastRun);
    reportCounterSet(metrics, "remote.lifetime.", g_lifetime);
    for (const auto &[label, values] : g_lastRunEpochs)
        for (const auto &[name, value] : values)
            metrics.gauge("remote." + label + "." + name) = value;
}

std::vector<SynthResult>
remoteBatchedRuns(const NocConfig &config, std::uint32_t channels,
                  const std::vector<SyntheticWorkload> &workloads,
                  Cycle max_cycles)
{
    const std::size_t count = workloads.size();
    std::vector<SynthResult> results(count);
    if (count == 0)
        return results;
    const RemoteConfig cfg = remoteConfig();
    RunCounters run; // joined before publishRun, so refs stay valid

    // Slot ownership: each index is written by exactly one endpoint
    // thread (round-robin shards are disjoint); the joins below
    // publish every write before the main thread reads.
    std::vector<std::uint8_t> origin(count, kOriginPending);
    std::vector<std::uint8_t> remoteHit(count, 0);

    // Local cache pre-pass: a point this process already knows never
    // touches the wire.
    sched::BlobCache &cache = sweepCache();
    const bool cacheOn = cfg.useLocalCache && sweepCacheEnabled();
    std::vector<std::uint64_t> keys(count);
    for (std::size_t i = 0; i < count; ++i) {
        keys[i] = sweepKey(config, channels, workloads[i], max_cycles);
        if (!cacheOn)
            continue;
        if (auto payload = cache.lookup(keys[i])) {
            SynthResult cached;
            if (decodeSynthResult(*payload, cached)) {
                results[i] = cached;
                origin[i] = kOriginLocalCache;
                bump(run.localCacheHits);
            }
        }
    }

    // Encode the pending requests once, shard them round-robin.
    std::vector<std::vector<std::uint8_t>> payloads(count);
    std::vector<std::vector<std::size_t>> shards(cfg.endpoints.size());
    std::size_t pending = 0;
    for (std::size_t i = 0; i < count; ++i) {
        if (origin[i] != kOriginPending)
            continue;
        SweepRequest request;
        request.pointIndex = static_cast<std::uint32_t>(i);
        request.config = config;
        request.channels = channels;
        request.workload = workloads[i];
        request.maxCycles = max_cycles;
        payloads[i] = encodeSweepRequestPayload(request);
        shards[pending % shards.size()].push_back(i);
        ++pending;
    }

    if (pending > 0 && shards.size() == 1) {
        runEndpointWorker(cfg, cfg.endpoints[0], shards[0], payloads,
                          results, origin, remoteHit, run);
    } else if (pending > 0) {
        std::vector<std::thread> workers;
        workers.reserve(shards.size());
        for (std::size_t e = 0; e < shards.size(); ++e) {
            if (shards[e].empty())
                continue;
            workers.emplace_back([&, e] {
                runEndpointWorker(cfg, cfg.endpoints[e], shards[e],
                                  payloads, results, origin,
                                  remoteHit, run);
            });
        }
        for (std::thread &worker : workers)
            worker.join();
    }

    // Harvest: count, locally cache remote answers, then compute
    // whatever the fleet could not serve.
    std::vector<std::size_t> fallback;
    for (std::size_t i = 0; i < count; ++i) {
        if (origin[i] == kOriginRemote) {
            bump(run.pointsRemote);
            if (remoteHit[i] != 0)
                bump(run.remoteCacheHits);
            if (cacheOn)
                cache.store(keys[i], encodeSynthResult(results[i]));
        } else if (origin[i] == kOriginPending) {
            fallback.push_back(i);
        }
    }
    if (!fallback.empty()) {
        bump(run.pointsFallback, fallback.size());
        sched::ensureGlobalPool();
        const std::vector<SynthResult> computed = parallelMap(
            fallback,
            [&](std::size_t i) {
                return cachedRunSynthetic(config, channels, workloads[i],
                                          max_cycles);
            },
            0, "remoteBatchedRuns/fallback");
        for (std::size_t j = 0; j < fallback.size(); ++j)
            results[fallback[j]] = computed[j];
    }
    publishRun(run);
    return results;
}

// --- Sharded run driver --------------------------------------------

namespace {

/**
 * One remote slice attempt over one fresh connection: handshake,
 * send the snapshotRequest message, harvest the snapshotResult
 * (tolerating the one metricsEpoch frame the request is owed), part
 * cleanly. False on any transport/protocol/decode failure.
 */
bool
trySliceRemote(const RemoteConfig &cfg, const net::Endpoint &endpoint,
               const std::vector<std::uint8_t> &payload,
               std::uint64_t request_id, RunCounters &run,
               ShardSliceResult &out, bool &permanent)
{
    std::uint32_t window = 0;
    net::Socket sock = connectAndHandshake(cfg, endpoint, run, window,
                                           permanent);
    if (!sock.valid())
        return false;

    net::Frame request;
    request.type = net::MessageType::snapshotRequest;
    request.requestId = request_id;
    request.payload = payload;
    if (net::sendMessage(sock, request, cfg.ioTimeoutMs) !=
        net::FrameStatus::ok)
        return false;

    bool got = false;
    std::size_t epochs = 0;
    for (;;) {
        net::Frame frame;
        if (net::recvMessage(sock, frame, cfg.resultWaitMs,
                             cfg.ioTimeoutMs) != net::FrameStatus::ok)
            break;
        if (frame.type == net::MessageType::metricsEpoch) {
            if (!takeEpoch(frame, endpoint, run, epochs, 1))
                break;
            continue;
        }
        if (frame.type == net::MessageType::error) {
            bump(run.errorFrames);
            std::uint32_t code = 0;
            std::string message;
            if (net::parseErrorFrame(frame, code, message))
                permanent = code == net::kErrBadVersion ||
                            code == net::kErrBadSchema;
            break;
        }
        if (frame.type != net::MessageType::snapshotResult ||
            frame.requestId != request_id)
            break;
        if (decodeShardSliceResultPayload(frame.payload, out))
            got = true;
        break;
    }
    if (got)
        partSession(cfg, endpoint, sock, run, epochs, 1);
    return got;
}

/**
 * Client-side validation of a remote slice answer — the mirror of
 * the daemon's own range checks plus an actual restore probe. A
 * decoded snapshot is internally consistent but nothing ties it to
 * *this* run's geometry, and committing an unrestorable one would
 * poison every later slice: daemons reject the chain, and the local
 * fallback cannot resume it either. Validating here keeps a hostile
 * or buggy daemon at the cost of one failed attempt — never a dead
 * fleet, never a dead process. On success the answer's snapshot is
 * left trimmed, so the probe restored exactly the bytes the next
 * slice will.
 */
bool
validateSliceAnswer(const RunRequest &request, SnapshotKind kind,
                    Cycle consumed, const ShardSliceRequest &slice,
                    ShardSliceResult &answer)
{
    if (answer.kind != kind)
        return false;
    if (answer.done)
        return true; // stats-only; no snapshot travels (decode pins)
    // Range checks first, and in this order — without the runStart
    // bound (which only the daemon used to check), a hostile
    // cycle() < runStart snapshot wraps the unsigned delta into a
    // huge "advance" that sails past every later comparison.
    if (answer.snapshot.cycle() < answer.snapshot.runStart)
        return false;
    const Cycle advanced =
        answer.snapshot.cycle() - answer.snapshot.runStart;
    // The run must have moved (or a lying daemon pins an infinite
    // slice loop), must not claim more than the slice's budget, and
    // an unfinished run must still be short of the whole-run guard.
    if (advanced <= consumed ||
        advanced > saturatingAddCycles(consumed, slice.sliceCycles) ||
        advanced >= slice.runMaxCycles)
        return false;
    answer.snapshot.trimState();
    auto probe = makeNoc(*request.config, 1);
    if (!probe->restoreState(answer.snapshot.engine))
        return false;
    if (kind == SnapshotKind::synthetic) {
        SyntheticInjector injector(*probe, *request.workload);
        return injector.restoreState(answer.snapshot.injector);
    }
    TraceReplayer replayer(*probe, *request.trace);
    return replayer.restoreState(answer.snapshot.replay);
}

} // namespace

RunResult
runShardedSim(const RunRequest &request, Cycle shard_cycles)
{
    if ((request.workload != nullptr) == (request.trace != nullptr))
        FT_FATAL("runShardedSim needs exactly one of workload / trace");
    if (request.device || !request.config)
        FT_FATAL("runShardedSim needs a config-built run (no device)");
    if (request.channels != 1)
        FT_FATAL("runShardedSim requires a single-channel device "
                 "(engine-state capture)");
    if (request.useCache || request.sim.telemetry ||
        request.sim.snapshotEveryCycles != 0 ||
        !request.sim.resumeFrom.empty() || request.sim.resumeSnapshot ||
        request.sim.captureFinal)
        FT_FATAL("runShardedSim owns the cache/telemetry/snapshot "
                 "knobs; clear them on the request");
    if (shard_cycles < 1 || shard_cycles > kMaxSliceCycles)
        FT_FATAL("runShardedSim needs 1 <= shard_cycles <= ",
                 kMaxSliceCycles);

    const bool is_trace = request.trace != nullptr;
    const SnapshotKind kind =
        is_trace ? SnapshotKind::trace : SnapshotKind::synthetic;
    const RemoteConfig cfg = remoteConfig();
    RunCounters run;

    ShardSliceRequest slice;
    slice.kind = kind;
    slice.config = *request.config;
    slice.channels = 1;
    if (is_trace) {
        slice.trace = *request.trace;
        slice.key = checkpointKey(*request.config, request.channels,
                                  *request.trace);
    } else {
        slice.workload = *request.workload;
        slice.key = checkpointKey(*request.config, request.channels,
                                  *request.workload);
    }
    slice.sliceCycles = shard_cycles;
    slice.runMaxCycles = request.sim.maxCycles;

    RunResult result;
    result.isTrace = is_trace;
    NocStats merged;
    bool first_slice = true;
    // Once the fleet has proven dead (budget exhausted or a permanent
    // rejection), the remaining slices stay local rather than paying
    // the retry schedule once per slice.
    bool fleet_dead = cfg.endpoints.empty();
    std::size_t next_endpoint = 0;
    std::uint64_t slice_index = 0;
    Cycle consumed = 0; // run-relative cycles completed so far
    // Provenance of slice.snapshot: a remote-origin snapshot, even a
    // restore-probed one, is never worth aborting the process over.
    bool snapshot_from_remote = false;
    bool done = false;

    while (!done) {
        ShardSliceResult answer;
        bool served = false;

        if (!fleet_dead) {
            const std::vector<std::uint8_t> payload =
                encodeShardSliceRequestPayload(slice);
            unsigned failures = 0;
            while (!served && failures < cfg.maxAttempts) {
                if (failures > 0) {
                    bump(run.reconnects);
                    std::this_thread::sleep_for(
                        std::chrono::milliseconds(net::backoffDelayMs(
                            failures, cfg.backoffInitialMs,
                            cfg.backoffCapMs)));
                }
                const net::Endpoint &endpoint =
                    cfg.endpoints[next_endpoint %
                                  cfg.endpoints.size()];
                ++next_endpoint; // round-robin slices and retries
                bool permanent = false;
                served = trySliceRemote(cfg, endpoint, payload,
                                        slice_index, run, answer,
                                        permanent);
                // Trust nothing a peer says unchecked: range checks
                // plus a restore probe (validateSliceAnswer), so a
                // hostile answer is one failed attempt, not a
                // poisoned slice chain.
                if (served &&
                    !validateSliceAnswer(request, kind, consumed,
                                         slice, answer))
                    served = false;
                if (!served) {
                    if (permanent) {
                        fleet_dead = true;
                        break;
                    }
                    ++failures;
                }
            }
            if (!served)
                fleet_dead = true; // degrade to local completion
        }

        if (served) {
            bump(run.slicesRemote);
        } else {
            // Local slice: same budgets, same handoff contract, so a
            // sharded run completes (identically) even with no fleet.
            Snapshot next;
            auto noc = makeNoc(*request.config, 1);
            RunRequest local;
            local.device = noc.get();
            local.workload = request.workload;
            local.trace = request.trace;
            local.sim.maxCycles =
                std::min(slice.runMaxCycles,
                         saturatingAddCycles(consumed,
                                             slice.sliceCycles));
            local.sim.resumeSnapshot =
                slice.hasSnapshot ? &slice.snapshot : nullptr;
            local.sim.captureFinal = &next;
            const RunResult local_result = runSim(local);
            if (slice.hasSnapshot && !local_result.resumed) {
                if (snapshot_from_remote) {
                    // Belt and braces: a remote snapshot is probed
                    // before being committed, so this should be
                    // unreachable — but the contract is that fleet
                    // failure degrades to local completion, never a
                    // crash, so discard the remote chain and
                    // recompute the whole run locally from scratch.
                    FT_WARN("sharded run: remote snapshot chain "
                            "failed local resume; recomputing the "
                            "run locally");
                    fleet_dead = true;
                    slice.hasSnapshot = false;
                    slice.snapshot = Snapshot{};
                    snapshot_from_remote = false;
                    consumed = 0;
                    merged = NocStats{};
                    first_slice = true;
                    ++slice_index;
                    continue;
                }
                FT_FATAL("sharded run: local slice failed to resume "
                         "its own snapshot");
            }
            if (!local_result.finalCaptured)
                FT_FATAL("sharded run: device lost engine-state "
                         "capture mid-run");
            answer = ShardSliceResult{};
            answer.kind = kind;
            answer.synth = local_result.synth;
            answer.trace = local_result.trace;
            const Cycle advanced = next.cycle() - next.runStart;
            answer.done = (is_trace ? local_result.trace.completed
                                    : local_result.synth.completed) ||
                          advanced >= slice.runMaxCycles;
            if (!answer.done) {
                answer.hasSnapshot = true;
                answer.snapshot = std::move(next);
            }
            bump(run.slicesFallback);
        }

        const NocStats &slice_stats =
            is_trace ? answer.trace.stats : answer.synth.stats;
        if (first_slice) {
            merged = slice_stats;
            first_slice = false;
        } else {
            merged.merge(slice_stats);
        }

        done = answer.done;
        if (done) {
            if (is_trace) {
                result.trace = answer.trace;
                result.trace.stats = merged;
            } else {
                result.synth = answer.synth;
                result.synth.stats = merged;
            }
        } else {
            consumed = answer.snapshot.cycle() -
                       answer.snapshot.runStart;
            // The handoff contract (Snapshot::trimState): the next
            // slice resumes the traffic mid-flight but measures only
            // itself, so the per-slice stats merge back to the whole.
            answer.snapshot.trimState();
            slice.snapshot = std::move(answer.snapshot);
            slice.hasSnapshot = true;
            snapshot_from_remote = served;
        }
        ++slice_index;
    }

    publishRun(run);
    return result;
}

} // namespace fasttrack
