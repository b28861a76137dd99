#include "sim/remote.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <optional>
#include <thread>
#include <utility>

#include "common/logging.hpp"
#include "common/thread_annotations.hpp"
#include "net/socket.hpp"
#include "net/wire.hpp"
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
 * Counters of one in-flight remote run (a remoteRunPoints or
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

/** How far an error frame's refusal reaches. */
enum class ErrorScope
{
    /** kErrBadRequest: the request it names; the session goes on. */
    request,
    /** Anything else, or a frame that does not parse. */
    session,
    /** Version/schema mismatch: retrying this endpoint cannot help. */
    endpoint,
};

/** Count an error frame and classify it; the one place that does. */
ErrorScope
classifyError(const net::Frame &frame, RunCounters &run)
{
    bump(run.errorFrames);
    std::uint32_t code = 0;
    std::string message;
    if (!net::parseErrorFrame(frame, code, message))
        return ErrorScope::session;
    if (code == net::kErrBadVersion || code == net::kErrBadSchema)
        return ErrorScope::endpoint;
    return code == net::kErrBadRequest ? ErrorScope::request
                                       : ErrorScope::session;
}

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
        permanent = classifyError(ack, run) == ErrorScope::endpoint;
        bump(run.connectFailures);
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

/** Before the attempt that follows @p failures failed ones, count a
 *  reconnect and sleep out its backoff (net::backoffDelayMs). */
void
reconnectDelay(const RemoteConfig &cfg, RunCounters &run,
               unsigned failures)
{
    if (failures == 0)
        return;
    bump(run.reconnects);
    std::this_thread::sleep_for(std::chrono::milliseconds(
        net::backoffDelayMs(failures, cfg.backoffInitialMs,
                            cfg.backoffCapMs)));
}

/** One request of a client session; its payload outlives the
 *  session. */
struct SessionRequest
{
    net::MessageType type = net::MessageType::sweepRequest;
    std::uint64_t id = 0;
    const std::vector<std::uint8_t> *payload = nullptr;
};

/**
 * The one client session loop, for sweep points and slices alike:
 * connect, handshake, send @p requests in order with at most the
 * granted window outstanding, and read answers until none is in
 * flight. Epochs count against the requests sent (takeEpoch). Error
 * frames are classified once (classifyError): a version/schema error
 * sets @p permanent, and a kErrBadRequest leaves the request it names
 * unserved while the session goes on. An answer or a refusal must
 * name a request sent and not yet settled; an answer then goes to
 * @p accept with that request's index, and a false return marks it
 * rogue. A rogue frame or a broken transport ends the session. Once
 * every request has been answered, the session parts (partSession).
 */
template <typename Accept>
void
runSession(const RemoteConfig &cfg, const net::Endpoint &endpoint,
           const std::vector<SessionRequest> &requests, RunCounters &run,
           bool &permanent, Accept &&accept)
{
    std::uint32_t window = 0;
    net::Socket sock = connectAndHandshake(cfg, endpoint, run, window,
                                           permanent);
    if (!sock.valid())
        return;

    std::vector<bool> settled(requests.size(), false);
    std::size_t sent = 0, inflight = 0, answered = 0, epochs = 0;
    for (;;) {
        for (; inflight < window && sent < requests.size();
             ++sent, ++inflight) {
            net::Frame frame;
            frame.type = requests[sent].type;
            frame.requestId = requests[sent].id;
            frame.payload = *requests[sent].payload;
            if (net::sendMessage(sock, frame, cfg.ioTimeoutMs) !=
                net::FrameStatus::ok)
                return;
        }
        if (inflight == 0)
            break;

        net::Frame frame;
        if (net::recvMessage(sock, frame, cfg.resultWaitMs,
                             cfg.ioTimeoutMs) != net::FrameStatus::ok)
            return;
        if (frame.type == net::MessageType::metricsEpoch) {
            if (!takeEpoch(frame, endpoint, run, epochs, sent))
                return;
            continue;
        }
        const bool refused = frame.type == net::MessageType::error;
        if (refused) {
            const ErrorScope scope = classifyError(frame, run);
            permanent = scope == ErrorScope::endpoint;
            if (scope != ErrorScope::request)
                return;
        }
        std::size_t i = 0;
        while (i < sent &&
               (settled[i] || requests[i].id != frame.requestId))
            ++i;
        if (i == sent)
            return;
        settled[i] = true;
        --inflight;
        if (refused)
            continue;
        if (!accept(i, frame))
            return;
        ++answered;
    }
    if (answered == requests.size())
        partSession(cfg, endpoint, sock, run, epochs, sent);
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
    const auto accept = [&](std::size_t i, const net::Frame &frame) {
        std::uint32_t point = 0;
        bool hit = false;
        SynthResult result;
        if (frame.type != net::MessageType::sweepResult ||
            !decodeSweepResultPayload(frame.payload, point, hit,
                                      result) ||
            point != frame.requestId)
            return false;
        const std::size_t idx = points[i];
        results[idx] = result;
        remote_hit[idx] = hit ? 1 : 0;
        origin[idx] = kOriginRemote;
        return true;
    };
    unsigned failures = 0; // consecutive attempts with no progress
    while (!points.empty() && failures < cfg.maxAttempts) {
        reconnectDelay(cfg, run, failures);
        std::vector<SessionRequest> requests;
        requests.reserve(points.size());
        for (std::size_t idx : points)
            requests.push_back(
                {net::MessageType::sweepRequest, idx, &payloads[idx]});
        bool permanent = false;
        runSession(cfg, endpoint, requests, run, permanent, accept);
        if (permanent)
            break;
        // Progress resets the budget: a flaky worker that keeps
        // serving some of each window gets drained, not abandoned.
        const std::size_t before = points.size();
        std::erase_if(points, [&origin](std::size_t idx) {
            return origin[idx] != kOriginPending;
        });
        failures = points.size() < before ? 1 : failures + 1;
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
remoteRunPoints(const std::vector<RunPoint> &points,
                const std::vector<std::uint64_t> &keys)
{
    const std::size_t count = points.size();
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
    const bool cacheOn = cfg.useLocalCache && sweepCacheEnabled();
    for (std::size_t i = 0; i < count; ++i) {
        if (cacheOn && probeSweepCache(keys[i], results[i])) {
            origin[i] = kOriginLocalCache;
            bump(run.localCacheHits);
        }
    }

    // Encode the pending requests once, shard them round-robin.
    std::vector<std::vector<std::uint8_t>> payloads(count);
    std::vector<std::vector<std::size_t>> shards(cfg.endpoints.size());
    std::size_t pending = 0;
    for (std::size_t i = 0; i < count; ++i) {
        if (origin[i] != kOriginPending)
            continue;
        payloads[i] = encodeSweepRequestPayload(
            {points[i], static_cast<std::uint32_t>(i)});
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
                sweepCache().store(keys[i],
                                   encodeSynthResult(results[i]));
        } else if (origin[i] == kOriginPending) {
            fallback.push_back(i);
        }
    }
    if (!fallback.empty()) {
        // The pre-pass already probed these (when it ran), so each is
        // computed and stored without a second probe.
        bump(run.pointsFallback, fallback.size());
        std::vector<RunPoint> todo;
        std::vector<std::uint64_t> todo_keys;
        for (std::size_t i : fallback) {
            todo.push_back(points[i]);
            todo_keys.push_back(keys[i]);
        }
        const std::vector<SynthResult> computed =
            computePoints(todo, cacheOn ? &todo_keys : nullptr);
        for (std::size_t j = 0; j < fallback.size(); ++j)
            results[fallback[j]] = computed[j];
    }
    publishRun(run);
    return results;
}

// --- Sharded run driver --------------------------------------------

namespace {

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
validateSliceAnswer(const ShardSliceRequest &slice,
                    ShardSliceResult &answer)
{
    if (answer.kind != slice.kind)
        return false;
    if (answer.done)
        return true; // stats-only; no snapshot travels (decode pins)
    // Range checks first, and in this order — without the runStart
    // bound (which only the daemon used to check), a hostile
    // cycle() < runStart snapshot wraps the unsigned delta into a
    // huge "advance" that sails past every later comparison.
    if (answer.snapshot.cycle() < answer.snapshot.runStart)
        return false;
    const Cycle consumed = slice.consumed();
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
    auto probe = makeNoc(slice.config, slice.channels);
    if (!probe->restoreState(answer.snapshot.engine))
        return false;
    if (slice.kind == SnapshotKind::synthetic) {
        SyntheticInjector injector(*probe, slice.workload);
        return injector.restoreState(answer.snapshot.injector);
    }
    TraceReplayer replayer(*probe, slice.trace);
    return replayer.restoreState(answer.snapshot.replay);
}

} // namespace

SliceStatus
runSlice(const ShardSliceRequest &request, ShardSliceResult &out)
{
    const bool synthetic = request.kind == SnapshotKind::synthetic;
    auto noc = makeNoc(request.config, request.channels);
    Snapshot next;
    // sliceCycles is decode-bounded (kMaxSliceCycles) but consumed is
    // only bounded by runMaxCycles, so the sum must saturate.
    const RunResult res = runSim(
        {.device = noc.get(),
         .workload = synthetic ? &request.workload : nullptr,
         .trace = synthetic ? nullptr : &request.trace,
         .sim = {.maxCycles = std::min(
                     request.runMaxCycles,
                     saturatingAddCycles(request.consumed(),
                                         request.sliceCycles)),
                 .resumeSnapshot =
                     request.hasSnapshot ? &request.snapshot : nullptr,
                 .captureFinal = &next}});
    // runSim degrades a rejected snapshot to a fresh run — right for
    // an interactive resume, wrong for a slice whose stats would then
    // double-count the run's start.
    if (request.hasSnapshot && !res.resumed)
        return SliceStatus::notResumed;
    if (!res.finalCaptured)
        return SliceStatus::notCaptured;

    out = ShardSliceResult{};
    out.kind = request.kind;
    out.synth = res.synth;
    out.trace = res.trace;
    out.done = (synthetic ? res.synth.completed : res.trace.completed) ||
               next.cycle() - next.runStart >= request.runMaxCycles;
    if (!out.done) {
        // The handoff contract: the next slice resumes the traffic
        // mid-flight but measures only itself (docs/checkpoint.md).
        next.trimState();
        out.hasSnapshot = true;
        out.snapshot = std::move(next);
    }
    return SliceStatus::ok;
}

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
    const RemoteConfig cfg = remoteConfig();
    RunCounters run;

    ShardSliceRequest slice;
    slice.kind = is_trace ? SnapshotKind::trace : SnapshotKind::synthetic;
    slice.config = *request.config;
    if (is_trace)
        slice.trace = *request.trace;
    else
        slice.workload = *request.workload;
    slice.sliceCycles = shard_cycles;
    slice.runMaxCycles = request.sim.maxCycles;
    slice.key = slice.inputKey();

    RunResult result;
    result.isTrace = is_trace;
    std::optional<NocStats> merged;
    // Once the fleet has proven dead (budget exhausted or a permanent
    // rejection), the remaining slices stay local rather than paying
    // the retry schedule once per slice.
    bool fleet_dead = cfg.endpoints.empty();
    std::size_t next_endpoint = 0;
    std::uint64_t slice_index = 0;
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
            const std::vector<SessionRequest> requests{
                {net::MessageType::snapshotRequest, slice_index,
                 &payload}};
            const auto accept = [&](std::size_t, const net::Frame &frame) {
                served = frame.type == net::MessageType::snapshotResult &&
                         decodeShardSliceResultPayload(frame.payload,
                                                       answer);
                return served;
            };
            unsigned failures = 0;
            while (!served && failures < cfg.maxAttempts) {
                reconnectDelay(cfg, run, failures);
                const net::Endpoint &endpoint =
                    cfg.endpoints[next_endpoint %
                                  cfg.endpoints.size()];
                ++next_endpoint; // round-robin slices and retries
                bool permanent = false;
                runSession(cfg, endpoint, requests, run, permanent,
                           accept);
                // Trust nothing a peer says unchecked: range checks
                // plus a restore probe (validateSliceAnswer), so a
                // hostile answer is one failed attempt, not a
                // poisoned slice chain.
                served = served && validateSliceAnswer(slice, answer);
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
            // Local slice: the daemon's own slice step on the same
            // request, so a sharded run completes (identically) even
            // with no fleet.
            const SliceStatus status = runSlice(slice, answer);
            if (status == SliceStatus::notResumed &&
                snapshot_from_remote) {
                // Belt and braces: a remote snapshot is probed
                // before being committed, so this should be
                // unreachable — but the contract is that fleet
                // failure degrades to local completion, never a
                // crash, so discard the remote chain and recompute
                // the whole run locally from scratch.
                FT_WARN("sharded run: remote snapshot chain failed "
                        "local resume; recomputing the run locally");
                fleet_dead = true;
                slice.hasSnapshot = false;
                slice.snapshot = Snapshot{};
                snapshot_from_remote = false;
                merged.reset();
                ++slice_index;
                continue;
            }
            if (status == SliceStatus::notResumed)
                FT_FATAL("sharded run: local slice failed to resume "
                         "its own snapshot");
            if (status == SliceStatus::notCaptured)
                FT_FATAL("sharded run: device lost engine-state "
                         "capture mid-run");
            bump(run.slicesFallback);
        }

        const NocStats &slice_stats =
            is_trace ? answer.trace.stats : answer.synth.stats;
        if (merged)
            merged->merge(slice_stats);
        else
            merged = slice_stats;

        done = answer.done;
        if (done) {
            if (is_trace) {
                result.trace = answer.trace;
                result.trace.stats = *merged;
            } else {
                result.synth = answer.synth;
                result.synth.stats = *merged;
            }
        } else {
            // Both slice paths hand the snapshot back trimmed
            // (Snapshot::trimState): the next slice resumes the
            // traffic mid-flight but measures only itself, so the
            // per-slice stats merge back to the whole.
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
