#include "sim/remote.hpp"

#include <algorithm>
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
 * runShardedSim invocation). Worker threads bump the tally; the
 * run publishes itself once complete (publishRun), becoming the
 * "most recent run" snapshot and an increment of the lifetime
 * totals. Instance-scoping (instead of the historical process
 * globals) is what makes a second sweep's remoteStats() its own
 * numbers; scoping the epoch map to the run is what stops endpoints
 * dropped from --remote from being re-exported forever.
 */
struct RunCounters
{
    CounterTally<RemoteStats> counters;

    Mutex epochMutex;
    /** Latest telemetry epoch per endpoint label, this run only. */
    std::map<std::string, std::map<std::string, double>> epochs
        FT_GUARDED_BY(epochMutex);

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
    const RemoteStats s = run.counters.snapshot();
    MutexLock lk(g_statsMutex);
    g_lastRun = s;
    addCounters(g_lifetime, s);
    MutexLock le(run.epochMutex);
    g_lastRunEpochs = std::move(run.epochs);
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
    run.counters.bump(&RemoteStats::errorFrames);
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

/** Before the attempt that follows @p failures failed ones, count a
 *  reconnect and sleep out its backoff (net::backoffDelayMs). */
void
reconnectDelay(const RemoteConfig &cfg, RunCounters &run,
               unsigned failures)
{
    if (failures == 0)
        return;
    run.counters.bump(&RemoteStats::reconnects);
    std::this_thread::sleep_for(std::chrono::milliseconds(
        net::backoffDelayMs(failures, cfg.backoffInitialMs,
                            cfg.backoffCapMs)));
}

/** One request of a client session; its payload outlives the
 *  exchange. */
struct SessionRequest
{
    net::MessageType type = net::MessageType::sweepRequest;
    std::uint64_t id = 0;
    const std::vector<std::uint8_t> *payload = nullptr;
};

/**
 * One client session with a daemon, for sweep points and slices alike:
 * open (connect and the hello/helloAck handshake), any number of
 * exchanges, then part. A sweep worker opens, exchanges and parts once
 * per attempt; the sharded driver holds one session per endpoint across
 * a run's slices. Epochs count against every request the session has
 * sent (takeEpoch), so an epoch owed by one exchange is read during the
 * next, or by part.
 */
class ClientSession
{
  public:
    ClientSession(const RemoteConfig &cfg, const net::Endpoint &endpoint,
                  RunCounters &run)
        : cfg_(&cfg), endpoint_(&endpoint), run_(&run)
    {
    }

    bool isOpen() const { return sock_.valid(); }

    /**
     * Connect and run the handshake. False on failure, with
     * @p permanent set when the endpoint rejected us for a reason
     * retrying cannot fix. On success the session holds the granted
     * pipeline window.
     */
    bool open(bool &permanent)
    {
        sent_ = epochs_ = 0;
        std::string error;
        sock_ = net::connectTo(endpoint_->host, endpoint_->port,
                               cfg_->connectTimeoutMs, error);
        if (!sock_.valid())
            return failOpen();

        net::Frame hello;
        hello.type = net::MessageType::hello;
        net::WireWriter hw;
        hw.u32(net::kWireVersion);
        hw.u32(kSweepCacheSchema);
        hw.u32(cfg_->window);
        hello.payload = hw.take();
        net::Frame ack;
        if (net::sendFrame(sock_, hello, cfg_->ioTimeoutMs) !=
                net::FrameStatus::ok ||
            net::recvFrame(sock_, ack, cfg_->connectTimeoutMs,
                           cfg_->ioTimeoutMs) != net::FrameStatus::ok)
            return failOpen();
        if (ack.type == net::MessageType::error) {
            permanent = classifyError(ack, *run_) == ErrorScope::endpoint;
            return failOpen();
        }
        std::uint32_t version = 0, schema = 0, granted = 0;
        net::WireReader r(ack.payload);
        if (ack.type != net::MessageType::helloAck || !r.u32(version) ||
            !r.u32(schema) || !r.u32(granted) || !r.atEnd() ||
            granted == 0)
            return failOpen();
        window_ = std::min(cfg_->window, granted);
        return true;
    }

    /**
     * Send @p requests in order with at most the granted window
     * outstanding, and read answers until none is in flight. Error
     * frames are classified once (classifyError): a version/schema
     * error sets @p permanent, and a kErrBadRequest leaves the request
     * it names unserved while the exchange goes on. An answer or a
     * refusal must name a request of this exchange not yet settled; an
     * answer then goes to @p accept with that request's index, and a
     * false return marks it rogue. True when every request was
     * answered; otherwise (a refusal, a rogue frame, a broken
     * transport) the session is closed and never reused.
     */
    template <typename Accept>
    bool exchange(const std::vector<SessionRequest> &requests,
                  bool &permanent, Accept &&accept)
    {
        std::vector<bool> settled(requests.size(), false);
        std::size_t sent = 0, inflight = 0, answered = 0;
        for (;;) {
            for (; inflight < window_ && sent < requests.size();
                 ++sent, ++inflight, ++sent_) {
                net::Frame frame;
                frame.type = requests[sent].type;
                frame.requestId = requests[sent].id;
                frame.payload = *requests[sent].payload;
                if (net::sendMessage(sock_, frame, cfg_->ioTimeoutMs) !=
                    net::FrameStatus::ok)
                    return fail();
            }
            if (inflight == 0)
                break;

            net::Frame frame;
            if (net::recvMessage(sock_, frame, cfg_->resultWaitMs,
                                 cfg_->ioTimeoutMs) !=
                net::FrameStatus::ok)
                return fail();
            if (frame.type == net::MessageType::metricsEpoch) {
                if (!takeEpoch(frame, *endpoint_, *run_, epochs_, sent_))
                    return fail();
                continue;
            }
            const bool refused = frame.type == net::MessageType::error;
            if (refused) {
                const ErrorScope scope = classifyError(frame, *run_);
                permanent = scope == ErrorScope::endpoint;
                if (scope != ErrorScope::request)
                    return fail();
            }
            std::size_t i = 0;
            while (i < sent &&
                   (settled[i] || requests[i].id != frame.requestId))
                ++i;
            if (i == sent)
                return fail();
            settled[i] = true;
            --inflight;
            if (refused)
                continue;
            if (!accept(i, frame))
                return fail();
            ++answered;
        }
        if (answered < requests.size())
            return fail();
        return true;
    }

    /**
     * Part the session: say goodbye at once, then read to the daemon's
     * EOF, recording any epochs still in flight. The client cannot tell
     * how many batches the daemon cut its requests into, so it never
     * waits for an epoch; the daemon hangs up on goodbye instead.
     * takeEpoch still cuts off a peer that streams epochs, and
     * kEpochDrainMs one that goes silent without hanging up. A closed
     * session parts as a no-op.
     */
    void part()
    {
        net::Frame frame;
        frame.type = net::MessageType::goodbye;
        if (sock_.valid() &&
            net::sendFrame(sock_, frame, cfg_->ioTimeoutMs) ==
                net::FrameStatus::ok)
            while (net::recvFrame(sock_, frame, kEpochDrainMs,
                                  cfg_->ioTimeoutMs) ==
                       net::FrameStatus::ok &&
                   frame.type == net::MessageType::metricsEpoch)
                if (!takeEpoch(frame, *endpoint_, *run_, epochs_, sent_))
                    break;
        sock_.close();
    }

    /** Drop the connection without a goodbye. */
    void close() { sock_.close(); }

  private:
    bool fail()
    {
        sock_.close();
        return false;
    }

    bool failOpen()
    {
        run_->counters.bump(&RemoteStats::connectFailures);
        return fail();
    }

    const RemoteConfig *cfg_;
    const net::Endpoint *endpoint_;
    RunCounters *run_;
    net::Socket sock_;
    std::uint32_t window_ = 0;
    /** Requests sent and epochs read over the whole session. */
    std::size_t sent_ = 0;
    std::size_t epochs_ = 0;
};

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
        ClientSession session(cfg, endpoint, run);
        if (session.open(permanent) &&
            session.exchange(requests, permanent, accept))
            session.part();
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

void
reportRemoteStats(telemetry::MetricsRegistry &metrics)
{
    MutexLock lk(g_statsMutex);
    telemetry::exportCounters(metrics, "remote.", g_lastRun);
    telemetry::exportCounters(metrics, "remote.lifetime.", g_lifetime);
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
    for (std::size_t i = 0; i < count; ++i) {
        if (cfg.useLocalCache && probeSweepCache(keys[i], results[i])) {
            origin[i] = kOriginLocalCache;
            run.counters.bump(&RemoteStats::localCacheHits);
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
            run.counters.bump(&RemoteStats::pointsRemote);
            if (remoteHit[i] != 0)
                run.counters.bump(&RemoteStats::remoteCacheHits);
            if (cfg.useLocalCache)
                sweepCache().store(keys[i],
                                   encodeSynthResult(results[i]));
        } else if (origin[i] == kOriginPending) {
            fallback.push_back(i);
        }
    }
    if (!fallback.empty()) {
        // The pre-pass already probed these (when it ran), so each is
        // computed and stored without a second probe.
        run.counters.bump(&RemoteStats::pointsFallback, fallback.size());
        std::vector<RunPoint> todo;
        std::vector<std::uint64_t> todo_keys;
        for (std::size_t i : fallback) {
            todo.push_back(points[i]);
            todo_keys.push_back(keys[i]);
        }
        const std::vector<SynthResult> computed =
            computePoints(todo, cfg.useLocalCache ? &todo_keys : nullptr);
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

    // One session per endpoint, held across the run's slices: the
    // first slice a session carries is a snapshotRequest with the
    // run's inputs, each later one a sliceContinuation with only the
    // key and the snapshot. Every session is parted by goodbye once
    // the run needs the fleet no more.
    std::vector<ClientSession> sessions;
    sessions.reserve(cfg.endpoints.size());
    for (const net::Endpoint &endpoint : cfg.endpoints)
        sessions.emplace_back(cfg, endpoint, run);
    const auto part_sessions = [&sessions] {
        for (ClientSession &session : sessions)
            session.part();
    };

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

        if (fleet_dead) {
            part_sessions(); // no-ops once parted
        } else {
            const auto accept = [&](std::size_t, const net::Frame &frame) {
                return frame.type == net::MessageType::snapshotResult &&
                       decodeShardSliceResultPayload(frame.payload,
                                                     answer);
            };
            unsigned failures = 0;
            while (!served && failures < cfg.maxAttempts) {
                reconnectDelay(cfg, run, failures);
                // Round-robin slices and retries.
                ClientSession &session =
                    sessions[next_endpoint++ % sessions.size()];
                bool permanent = false;
                // A session stays open only after serving a slice that
                // handed a snapshot on, so a continuation has one.
                const bool fresh = !session.isOpen();
                if (!fresh || session.open(permanent)) {
                    const std::vector<std::uint8_t> payload =
                        fresh ? encodeShardSliceRequestPayload(slice)
                              : encodeShardSliceContinuationPayload(
                                    {slice.key, slice.snapshot});
                    const std::vector<SessionRequest> requests{
                        {fresh ? net::MessageType::snapshotRequest
                               : net::MessageType::sliceContinuation,
                         slice_index, &payload}};
                    // Trust nothing a peer says unchecked: range
                    // checks plus a restore probe
                    // (validateSliceAnswer), so a hostile answer is
                    // one failed attempt, not a poisoned slice chain.
                    served =
                        session.exchange(requests, permanent, accept) &&
                        validateSliceAnswer(slice, answer);
                }
                if (!served) {
                    // A session that broke or answered wrongly is
                    // never reused.
                    session.close();
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
            run.counters.bump(&RemoteStats::slicesRemote);
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
            run.counters.bump(&RemoteStats::slicesFallback);
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

    part_sessions();
    publishRun(run);
    return result;
}

} // namespace fasttrack
