#include "sim/remote.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
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

/** Range/consistency checks mirroring NocConfig::validate, minus the
 *  process abort: a daemon must reject a hostile request, not die on
 *  it. The size caps bound what one frame can make the daemon
 *  allocate or step. */
bool
validConfigOnWire(const NocConfig &c)
{
    if (c.n < 2 || c.n > 1024)
        return false;
    if (c.shortLinkStages > 8 || c.expressLinkStages > 8)
        return false;
    if (c.isFastTrack()) {
        if (c.d < 1 || c.d > c.n / 2)
            return false;
        if (c.r < 1 || c.r > c.d || c.d % c.r != 0)
            return false;
        if (c.r > 1 && c.n % c.r != 0)
            return false;
        if (c.variant == NocVariant::ftInject && c.n % c.d != 0)
            return false;
    }
    return true;
}

bool
validWorkloadOnWire(const SyntheticWorkload &w)
{
    if (!std::isfinite(w.injectionRate) || w.injectionRate <= 0.0 ||
        w.injectionRate > 1.0)
        return false;
    if (w.packetsPerPe < 1 || w.packetsPerPe > (1u << 20))
        return false;
    if (w.pattern == TrafficPattern::local &&
        (w.localRadius < 1 || w.localRadius > 1024))
        return false;
    return true;
}

bool
validSweepRequest(const SweepRequest &request)
{
    if (!validConfigOnWire(request.config))
        return false;
    if (request.channels < 1 || request.channels > 64)
        return false;
    if (!validWorkloadOnWire(request.workload))
        return false;
    return request.maxCycles >= 1;
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

// --- Message payload codecs ----------------------------------------

std::vector<std::uint8_t>
encodeSweepRequestPayload(const SweepRequest &request)
{
    net::WireWriter w;
    w.u32(request.pointIndex);
    const NocConfig &c = request.config;
    w.u32(c.n);
    w.u32(c.d);
    w.u32(c.r);
    w.u32(static_cast<std::uint32_t>(c.variant));
    w.u8(c.allowExpressTurn ? 1 : 0);
    w.u8(c.allowUpgrade ? 1 : 0);
    w.u8(c.turnPriority ? 1 : 0);
    w.u32(c.shortLinkStages);
    w.u32(c.expressLinkStages);
    w.u32(request.channels);
    const SyntheticWorkload &wl = request.workload;
    w.u32(static_cast<std::uint32_t>(wl.pattern));
    w.f64(wl.injectionRate);
    w.u32(wl.packetsPerPe);
    w.u32(wl.localRadius);
    w.u64(wl.seed);
    w.u64(request.maxCycles);
    return w.take();
}

bool
decodeSweepRequestPayload(const std::vector<std::uint8_t> &payload,
                          SweepRequest &out)
{
    SweepRequest request;
    NocConfig &c = request.config;
    SyntheticWorkload &wl = request.workload;
    std::uint32_t variant = 0, pattern = 0;
    std::uint8_t expressTurn = 0, upgrade = 0, turnPriority = 0;
    net::WireReader r(payload);
    const bool ok =
        r.u32(request.pointIndex) && r.u32(c.n) && r.u32(c.d) &&
        r.u32(c.r) && r.u32(variant) && r.u8(expressTurn) &&
        r.u8(upgrade) && r.u8(turnPriority) &&
        r.u32(c.shortLinkStages) && r.u32(c.expressLinkStages) &&
        r.u32(request.channels) && r.u32(pattern) &&
        r.f64(wl.injectionRate) && r.u32(wl.packetsPerPe) &&
        r.u32(wl.localRadius) && r.u64(wl.seed) &&
        r.u64(request.maxCycles) && r.atEnd();
    if (!ok)
        return false;
    if (variant > static_cast<std::uint32_t>(NocVariant::ftInject) ||
        pattern > static_cast<std::uint32_t>(TrafficPattern::transpose))
        return false;
    c.variant = static_cast<NocVariant>(variant);
    c.allowExpressTurn = expressTurn != 0;
    c.allowUpgrade = upgrade != 0;
    c.turnPriority = turnPriority != 0;
    wl.pattern = static_cast<TrafficPattern>(pattern);
    if (!validSweepRequest(request))
        return false;
    out = request;
    return true;
}

std::vector<std::uint8_t>
encodeSweepResultPayload(std::uint32_t point_index, bool cache_hit,
                         const std::vector<std::uint8_t> &result_payload)
{
    net::WireWriter w;
    w.u32(point_index);
    w.u8(cache_hit ? 1 : 0);
    w.u32(static_cast<std::uint32_t>(result_payload.size()));
    w.bytes(result_payload.data(), result_payload.size());
    return w.take();
}

bool
decodeSweepResultPayload(const std::vector<std::uint8_t> &payload,
                         std::uint32_t &point_index, bool &cache_hit,
                         SynthResult &out)
{
    net::WireReader r(payload);
    std::uint8_t hit = 0;
    std::uint32_t resultBytes = 0;
    if (!r.u32(point_index) || !r.u8(hit) || !r.u32(resultBytes) ||
        resultBytes == 0 || r.remaining() != resultBytes)
        return false;
    std::vector<std::uint8_t> resultPayload(resultBytes);
    if (!r.bytes(resultPayload.data(), resultPayload.size()))
        return false;
    cache_hit = hit != 0;
    return decodeSynthResult(resultPayload, out);
}

std::vector<std::uint8_t>
encodeMetricsPayload(const std::map<std::string, double> &values)
{
    net::WireWriter w;
    w.u32(static_cast<std::uint32_t>(values.size()));
    for (const auto &[name, value] : values) {
        w.str(name);
        w.f64(value);
    }
    return w.take();
}

bool
decodeMetricsPayload(const std::vector<std::uint8_t> &payload,
                     std::map<std::string, double> &out)
{
    std::map<std::string, double> values;
    net::WireReader r(payload);
    std::uint32_t count = 0;
    if (!r.u32(count))
        return false;
    for (std::uint32_t i = 0; i < count; ++i) {
        std::string name;
        double value = 0.0;
        if (!r.str(name) || !r.f64(value))
            return false;
        values[name] = value;
    }
    if (!r.atEnd())
        return false;
    out = std::move(values);
    return true;
}

// --- Temporal-shard slice codecs -----------------------------------

namespace {

/** Smallest possible encoded TraceMessage (empty deps): the count
 *  bound that keeps a forged message count from forcing an
 *  allocation larger than the payload that claims it. */
constexpr std::size_t kMinTraceMessageBytes = 8 + 4 + 4 + 8 + 8 + 4;

/** Cap on a trace name on the wire (names label, never shape). */
constexpr std::size_t kMaxTraceNameBytes = 4096;

void
encodeConfigFields(net::WireWriter &w, const NocConfig &c)
{
    w.u32(c.n);
    w.u32(c.d);
    w.u32(c.r);
    w.u32(static_cast<std::uint32_t>(c.variant));
    w.u8(c.allowExpressTurn ? 1 : 0);
    w.u8(c.allowUpgrade ? 1 : 0);
    w.u8(c.turnPriority ? 1 : 0);
    w.u32(c.shortLinkStages);
    w.u32(c.expressLinkStages);
}

bool
decodeConfigFields(net::WireReader &r, NocConfig &c)
{
    std::uint32_t variant = 0;
    std::uint8_t expressTurn = 0, upgrade = 0, turnPriority = 0;
    if (!r.u32(c.n) || !r.u32(c.d) || !r.u32(c.r) || !r.u32(variant) ||
        !r.u8(expressTurn) || !r.u8(upgrade) || !r.u8(turnPriority) ||
        !r.u32(c.shortLinkStages) || !r.u32(c.expressLinkStages))
        return false;
    if (variant > static_cast<std::uint32_t>(NocVariant::ftInject))
        return false;
    c.variant = static_cast<NocVariant>(variant);
    c.allowExpressTurn = expressTurn != 0;
    c.allowUpgrade = upgrade != 0;
    c.turnPriority = turnPriority != 0;
    return validConfigOnWire(c);
}

void
encodeWorkloadFields(net::WireWriter &w, const SyntheticWorkload &wl)
{
    w.u32(static_cast<std::uint32_t>(wl.pattern));
    w.f64(wl.injectionRate);
    w.u32(wl.packetsPerPe);
    w.u32(wl.localRadius);
    w.u64(wl.seed);
}

bool
decodeWorkloadFields(net::WireReader &r, SyntheticWorkload &wl)
{
    std::uint32_t pattern = 0;
    if (!r.u32(pattern) || !r.f64(wl.injectionRate) ||
        !r.u32(wl.packetsPerPe) || !r.u32(wl.localRadius) ||
        !r.u64(wl.seed))
        return false;
    if (pattern > static_cast<std::uint32_t>(TrafficPattern::transpose))
        return false;
    wl.pattern = static_cast<TrafficPattern>(pattern);
    return validWorkloadOnWire(wl);
}

void
encodeTraceFields(net::WireWriter &w, const Trace &trace)
{
    w.str(trace.name);
    w.u32(trace.n);
    w.u64(trace.messages.size());
    for (const TraceMessage &m : trace.messages) {
        w.u64(m.id);
        w.u32(m.src);
        w.u32(m.dst);
        w.u64(m.earliest);
        w.u64(m.delayAfterDeps);
        w.u32(static_cast<std::uint32_t>(m.deps.size()));
        for (std::uint64_t dep : m.deps)
            w.u64(dep);
    }
}

/**
 * Decode + validate a trace without Trace::validate (which aborts on
 * violation — unacceptable for hostile input). Mirrors its rules:
 * dense ids, node ranges, deps reference lower ids. Every count is
 * bounded by the bytes actually remaining before any allocation.
 */
bool
decodeTraceFields(net::WireReader &r, Trace &trace)
{
    if (!r.str(trace.name) || trace.name.size() > kMaxTraceNameBytes)
        return false;
    if (!r.u32(trace.n) || trace.n < 2 || trace.n > 1024)
        return false;
    std::uint64_t count = 0;
    if (!r.u64(count) || count > r.remaining() / kMinTraceMessageBytes)
        return false;
    const std::uint64_t nodes =
        static_cast<std::uint64_t>(trace.n) * trace.n;
    trace.messages.reserve(count);
    for (std::uint64_t i = 0; i < count; ++i) {
        TraceMessage m;
        std::uint32_t deps = 0;
        if (!r.u64(m.id) || !r.u32(m.src) || !r.u32(m.dst) ||
            !r.u64(m.earliest) || !r.u64(m.delayAfterDeps) ||
            !r.u32(deps))
            return false;
        if (m.id != i || m.src >= nodes || m.dst >= nodes)
            return false;
        if (deps > r.remaining() / 8)
            return false;
        m.deps.reserve(deps);
        for (std::uint32_t j = 0; j < deps; ++j) {
            std::uint64_t dep = 0;
            if (!r.u64(dep) || dep >= m.id)
                return false;
            m.deps.push_back(dep);
        }
        trace.messages.push_back(std::move(m));
    }
    return true;
}

/** Length-prefixed embedded snapshot; kind must match @p kind. */
bool
decodeEmbeddedSnapshot(net::WireReader &r, SnapshotKind kind,
                       Snapshot &out)
{
    std::uint64_t bytes = 0;
    if (!r.u64(bytes) || bytes > r.remaining())
        return false;
    std::vector<std::uint8_t> raw(static_cast<std::size_t>(bytes));
    if (!r.bytes(raw.data(), raw.size()))
        return false;
    return decodeSnapshot(raw, out) && out.kind == kind;
}

} // namespace

std::vector<std::uint8_t>
encodeShardSliceRequestPayload(const ShardSliceRequest &request)
{
    net::WireWriter w;
    w.u8(static_cast<std::uint8_t>(request.kind));
    encodeConfigFields(w, request.config);
    w.u32(request.channels);
    if (request.kind == SnapshotKind::synthetic)
        encodeWorkloadFields(w, request.workload);
    else
        encodeTraceFields(w, request.trace);
    w.u64(request.sliceCycles);
    w.u64(request.runMaxCycles);
    w.u64(request.key);
    w.u8(request.hasSnapshot ? 1 : 0);
    if (request.hasSnapshot) {
        const std::vector<std::uint8_t> snap =
            encodeSnapshot(request.snapshot);
        w.u64(snap.size());
        w.bytes(snap.data(), snap.size());
    }
    return w.take();
}

bool
decodeShardSliceRequestPayload(const std::vector<std::uint8_t> &payload,
                               ShardSliceRequest &out)
{
    ShardSliceRequest request;
    net::WireReader r(payload);
    std::uint8_t kind = 0;
    if (!r.u8(kind) ||
        (kind != static_cast<std::uint8_t>(SnapshotKind::synthetic) &&
         kind != static_cast<std::uint8_t>(SnapshotKind::trace)))
        return false;
    request.kind = static_cast<SnapshotKind>(kind);
    if (!decodeConfigFields(r, request.config))
        return false;
    // Slice execution resumes/captures engine state, which only
    // single-channel devices support — reject, never FT_FATAL in
    // planSnapshots on a daemon.
    if (!r.u32(request.channels) || request.channels != 1)
        return false;
    if (request.kind == SnapshotKind::synthetic) {
        if (!decodeWorkloadFields(r, request.workload))
            return false;
    } else {
        if (!decodeTraceFields(r, request.trace))
            return false;
    }
    std::uint8_t has_snapshot = 0;
    if (!r.u64(request.sliceCycles) || !r.u64(request.runMaxCycles) ||
        !r.u64(request.key) || !r.u8(has_snapshot))
        return false;
    // The slice budget bounds what one frame can make a daemon
    // compute (the slice runs synchronously in the frame handler), so
    // an unbounded value is hostile by definition.
    if (request.sliceCycles < 1 ||
        request.sliceCycles > kMaxSliceCycles ||
        request.runMaxCycles < 1 || has_snapshot > 1)
        return false;
    request.hasSnapshot = has_snapshot != 0;
    if (request.hasSnapshot &&
        !decodeEmbeddedSnapshot(r, request.kind, request.snapshot))
        return false;
    if (!r.atEnd())
        return false;
    out = std::move(request);
    return true;
}

std::vector<std::uint8_t>
encodeShardSliceResultPayload(const ShardSliceResult &result)
{
    net::WireWriter w;
    w.u8(static_cast<std::uint8_t>(result.kind));
    w.u8(result.done ? 1 : 0);
    if (result.kind == SnapshotKind::synthetic) {
        const std::vector<std::uint8_t> synth =
            encodeSynthResult(result.synth);
        w.u32(static_cast<std::uint32_t>(synth.size()));
        w.bytes(synth.data(), synth.size());
    } else {
        encodeNocStats(w, result.trace.stats);
        w.u64(result.trace.completion);
        w.u32(result.trace.pes);
        w.u8(result.trace.completed ? 1 : 0);
    }
    w.u8(result.hasSnapshot ? 1 : 0);
    if (result.hasSnapshot) {
        const std::vector<std::uint8_t> snap =
            encodeSnapshot(result.snapshot);
        w.u64(snap.size());
        w.bytes(snap.data(), snap.size());
    }
    return w.take();
}

bool
decodeShardSliceResultPayload(const std::vector<std::uint8_t> &payload,
                              ShardSliceResult &out)
{
    ShardSliceResult result;
    net::WireReader r(payload);
    std::uint8_t kind = 0, done = 0;
    if (!r.u8(kind) ||
        (kind != static_cast<std::uint8_t>(SnapshotKind::synthetic) &&
         kind != static_cast<std::uint8_t>(SnapshotKind::trace)) ||
        !r.u8(done) || done > 1)
        return false;
    result.kind = static_cast<SnapshotKind>(kind);
    result.done = done != 0;
    if (result.kind == SnapshotKind::synthetic) {
        std::uint32_t bytes = 0;
        if (!r.u32(bytes) || bytes == 0 || bytes > r.remaining())
            return false;
        std::vector<std::uint8_t> raw(bytes);
        if (!r.bytes(raw.data(), raw.size()) ||
            !decodeSynthResult(raw, result.synth))
            return false;
    } else {
        std::uint8_t completed = 0;
        if (!decodeNocStats(r, result.trace.stats) ||
            !r.u64(result.trace.completion) ||
            !r.u32(result.trace.pes) || !r.u8(completed) ||
            completed > 1)
            return false;
        result.trace.completed = completed != 0;
    }
    std::uint8_t has_snapshot = 0;
    if (!r.u8(has_snapshot) || has_snapshot > 1)
        return false;
    result.hasSnapshot = has_snapshot != 0;
    // An unfinished slice must hand the continuation over; a finished
    // one must not — anything else is a lying peer.
    if (result.hasSnapshot == result.done)
        return false;
    if (result.hasSnapshot &&
        !decodeEmbeddedSnapshot(r, result.kind, result.snapshot))
        return false;
    if (!r.atEnd())
        return false;
    out = std::move(result);
    return true;
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
