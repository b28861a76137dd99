/**
 * @file
 * End-to-end contract of the distributed sweep fabric: an ftd daemon
 * on loopback must serve sweeps byte-identical to the in-process
 * path, answer warm points from its blob cache, survive hostile
 * requests, and the client must ride out killed sessions and dead
 * endpoints via retry/backoff and local fallback — a sweep never
 * fails because the fleet did. Also pins the message payload codecs
 * (sweepRequest / sweepResult / metricsEpoch).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "golden_hash.hpp"
#include "run_input_variants.hpp"
#include "net/endpoint.hpp"
#include "net/frame.hpp"
#include "net/socket.hpp"
#include "net/wire.hpp"
#include "sched/work_stealing_pool.hpp"
#include "sim/ftd_server.hpp"
#include "sim/remote.hpp"
#include "sim/sweep_cache.hpp"

namespace fasttrack {
namespace {

/** Content hash of a full result (every counter and histogram). */
std::uint64_t
resultHash(const SynthResult &res)
{
    const auto bytes = encodeSynthResult(res);
    sched::Fnv1a h;
    h.addBytes(bytes.data(), bytes.size());
    return h.value();
}

/**
 * Small, fast workloads. Each test uses its own seed base so cold
 * runs stay cold even when the whole binary runs in one process
 * (the sweep cache is process-global).
 */
std::vector<SyntheticWorkload>
smallWorkloads(std::size_t count, std::uint64_t seed_base)
{
    std::vector<SyntheticWorkload> workloads(count);
    for (std::size_t i = 0; i < count; ++i) {
        workloads[i].pattern = TrafficPattern::random;
        workloads[i].injectionRate = 0.25 + 0.05 * static_cast<double>(i);
        workloads[i].packetsPerPe = 24;
        workloads[i].seed = seed_base + i;
    }
    return workloads;
}

/** runPoints over @p workloads on one channel of @p config. */
std::vector<SynthResult>
runAll(const NocConfig &config,
       const std::vector<SyntheticWorkload> &workloads)
{
    std::vector<RunPoint> points;
    for (const SyntheticWorkload &workload : workloads)
        points.push_back({config, 1, workload});
    return runPoints(points);
}

/** Install a remote config for the scope, clear it on exit (also on
 *  assertion failure) so later tests run the local path. */
struct WithRemote
{
    explicit WithRemote(RemoteConfig config)
    {
        setRemoteConfig(std::move(config));
    }
    ~WithRemote() { clearRemoteConfig(); }
};

RemoteConfig
loopbackConfig(std::initializer_list<std::uint16_t> ports)
{
    RemoteConfig config;
    for (std::uint16_t port : ports)
        config.endpoints.push_back(net::Endpoint{"127.0.0.1", port});
    // Force every point over the wire: the daemon shares this
    // process's sweep cache, so a client-side pre-pass would answer
    // locally and leave the transport untested.
    config.useLocalCache = false;
    config.backoffInitialMs = 1;
    config.backoffCapMs = 20;
    config.connectTimeoutMs = 2'000;
    return config;
}

/** A started FtdServer on an ephemeral loopback port. */
struct WithDaemon
{
    FtdServer server;
    explicit WithDaemon(net::ServerConfig config = {})
        : server(std::move(config))
    {
        std::string error;
        EXPECT_TRUE(server.start(error)) << error;
    }
    ~WithDaemon() { server.stop(); }
    std::uint16_t port() { return server.boundPort(); }
};

/**
 * A daemon that never stops talking. It answers each request it reads
 * by relaying it to a real daemon (@p upstream) and relaying back the
 * whole answer, the batch's metricsEpoch last — or, with @p answer
 * false, never answers at all. And whenever its client has sent
 * nothing for 100 ms it sends one more metricsEpoch, up to kMaxStreamed
 * per session before it hangs up. A client that lets every epoch
 * restart its wait stays in each session until that cap; one that
 * counts epochs against the requests it sent leaves long before.
 */
class EpochStreamingDaemon
{
  public:
    static constexpr int kMaxStreamed = 30;

    EpochStreamingDaemon(std::uint16_t upstream, bool answer)
        : upstream_(upstream), answer_(answer)
    {
        std::string error;
        EXPECT_TRUE(listener_.open("127.0.0.1", 0, error)) << error;
        thread_ = std::thread([this] { serve(); });
    }
    ~EpochStreamingDaemon()
    {
        stop_.store(true);
        if (thread_.joinable())
            thread_.join();
        listener_.close();
    }
    EpochStreamingDaemon(const EpochStreamingDaemon &) = delete;
    EpochStreamingDaemon &operator=(const EpochStreamingDaemon &) =
        delete;

    std::uint16_t port() const { return listener_.boundPort(); }
    /** Most epochs sent unprompted in any one session so far. */
    int maxStreamed() const { return maxStreamed_.load(); }
    int sessions() const { return sessions_.load(); }

  private:
    void serve()
    {
        while (!stop_.load()) {
            net::Socket client = listener_.accept(100);
            if (!client.valid())
                continue;
            sessions_.fetch_add(1);
            const int streamed = serveSession(client);
            maxStreamed_.store(std::max(maxStreamed_.load(), streamed));
        }
    }

    /** One client session; returns the epochs streamed unprompted. */
    int serveSession(net::Socket &client)
    {
        net::Frame hello;
        if (net::recvFrame(client, hello, 2'000, 2'000) !=
            net::FrameStatus::ok)
            return 0;
        net::Socket daemon;
        net::Frame ack;
        if (answer_) {
            std::string error;
            daemon = net::connectTo("127.0.0.1", upstream_, 2'000, error);
            if (!daemon.valid() ||
                net::sendFrame(daemon, hello, 2'000) !=
                    net::FrameStatus::ok ||
                net::recvFrame(daemon, ack, 2'000, 2'000) !=
                    net::FrameStatus::ok)
                return 0;
        } else {
            ack.type = net::MessageType::helloAck;
            net::WireWriter w;
            w.u32(net::kWireVersion);
            w.u32(kSweepCacheSchema);
            w.u32(8);
            ack.payload = w.take();
        }
        if (net::sendFrame(client, ack, 2'000) != net::FrameStatus::ok)
            return 0;

        int streamed = 0;
        while (streamed < kMaxStreamed && !stop_.load()) {
            net::Frame frame;
            const net::FrameStatus status =
                net::recvMessage(client, frame, 100, 2'000);
            if (status == net::FrameStatus::timeout) {
                net::Frame epoch;
                epoch.type = net::MessageType::metricsEpoch;
                epoch.payload = encodeMetricsPayload(
                    {{"fake.streamed", static_cast<double>(streamed)}});
                if (net::sendFrame(client, epoch, 2'000) !=
                    net::FrameStatus::ok)
                    break;
                ++streamed;
                continue;
            }
            if (status != net::FrameStatus::ok ||
                frame.type == net::MessageType::goodbye)
                break;
            if (!answer_)
                continue;
            // One request at a time, so each upstream batch holds
            // exactly this request and ends with its own epoch.
            if (net::sendMessage(daemon, frame, 2'000) !=
                net::FrameStatus::ok)
                break;
            net::Frame reply;
            do {
                if (net::recvMessage(daemon, reply, 60'000, 10'000) !=
                        net::FrameStatus::ok ||
                    net::sendMessage(client, reply, 2'000) !=
                        net::FrameStatus::ok)
                    return streamed;
            } while (reply.type != net::MessageType::metricsEpoch);
        }
        return streamed;
    }

    net::Listener listener_;
    std::uint16_t upstream_;
    bool answer_;
    std::atomic<bool> stop_{false};
    std::atomic<int> maxStreamed_{0};
    std::atomic<int> sessions_{0};
    std::thread thread_;
};

/**
 * A daemon that serves one session of @p points sweep requests as one
 * batch: it reads them all, answers each from a local run, sends the
 * one metricsEpoch the batch is owed, and then times how long its
 * client takes to say goodbye. The client cannot tell one batch from
 * several, so it must part without waiting for further epochs.
 */
class OneBatchDaemon
{
  public:
    explicit OneBatchDaemon(std::size_t points) : points_(points)
    {
        std::string error;
        EXPECT_TRUE(listener_.open("127.0.0.1", 0, error)) << error;
        thread_ = std::thread([this] { serve(); });
    }
    ~OneBatchDaemon()
    {
        finish();
        listener_.close();
    }
    OneBatchDaemon(const OneBatchDaemon &) = delete;
    OneBatchDaemon &operator=(const OneBatchDaemon &) = delete;

    std::uint16_t port() const { return listener_.boundPort(); }
    /** Let the session in progress end, then report the milliseconds
     *  from its epoch to the client's goodbye; negative when no
     *  session parted with a goodbye. */
    double goodbyeGapMs()
    {
        finish();
        return goodbyeGapMs_.load();
    }

  private:
    void finish()
    {
        stop_.store(true);
        if (thread_.joinable())
            thread_.join();
    }

    void serve()
    {
        while (!stop_.load() && goodbyeGapMs_.load() < 0.0) {
            net::Socket client = listener_.accept(100);
            if (client.valid())
                serveSession(client);
        }
    }

    void serveSession(net::Socket &client)
    {
        net::Frame frame;
        if (net::recvFrame(client, frame, 2'000, 2'000) !=
            net::FrameStatus::ok)
            return;
        net::Frame ack;
        ack.type = net::MessageType::helloAck;
        net::WireWriter w;
        w.u32(net::kWireVersion);
        w.u32(kSweepCacheSchema);
        w.u32(8);
        ack.payload = w.take();
        if (net::sendFrame(client, ack, 2'000) != net::FrameStatus::ok)
            return;

        std::vector<net::Frame> answers;
        for (std::size_t i = 0; i < points_; ++i) {
            SweepRequest request;
            if (net::recvFrame(client, frame, 2'000, 2'000) !=
                    net::FrameStatus::ok ||
                frame.type != net::MessageType::sweepRequest ||
                !decodeSweepRequestPayload(frame.payload, request))
                return;
            net::Frame answer;
            answer.type = net::MessageType::sweepResult;
            answer.requestId = frame.requestId;
            answer.payload = encodeSweepResultPayload(
                request.pointIndex, false,
                encodeSynthResult(runSynthetic(request.config,
                                               request.channels,
                                               request.workload,
                                               request.maxCycles)));
            answers.push_back(std::move(answer));
        }
        net::Frame epoch;
        epoch.type = net::MessageType::metricsEpoch;
        epoch.payload = encodeMetricsPayload({{"fake.batches", 1.0}});
        answers.push_back(std::move(epoch));
        for (const net::Frame &answer : answers)
            if (net::sendFrame(client, answer, 2'000) !=
                net::FrameStatus::ok)
                return;

        const auto sent = std::chrono::steady_clock::now();
        if (net::recvFrame(client, frame, 2'000, 2'000) ==
                net::FrameStatus::ok &&
            frame.type == net::MessageType::goodbye)
            goodbyeGapMs_.store(
                std::chrono::duration<double, std::milli>(
                    std::chrono::steady_clock::now() - sent)
                    .count());
    }

    net::Listener listener_;
    std::size_t points_;
    std::atomic<bool> stop_{false};
    std::atomic<double> goodbyeGapMs_{-1.0};
    std::thread thread_;
};

/** An ephemeral port with nothing listening on it. */
std::uint16_t
deadPort()
{
    net::Listener listener;
    std::string error;
    EXPECT_TRUE(listener.open("127.0.0.1", 0, error)) << error;
    const std::uint16_t port = listener.boundPort();
    listener.close();
    return port;
}

SweepRequest
sampleRequest(std::uint64_t seed)
{
    SweepRequest request;
    request.pointIndex = 3;
    request.config = NocConfig::fastTrack(4, 2, 1);
    request.channels = 2;
    request.workload = smallWorkloads(1, seed).front();
    request.maxCycles = 100'000;
    return request;
}

TEST(DistributedCodec, SweepRequestRoundTrips)
{
    // Every input field must survive encode -> decode: each variant
    // changes one field, so a field the codec drops fails by name.
    for (const RunInput &in : runInputVariants()) {
        SweepRequest request;
        request.pointIndex = 3;
        request.config = in.config;
        request.channels = in.channels;
        request.workload = in.workload;
        request.maxCycles = in.maxCycles;
        SweepRequest decoded;
        ASSERT_TRUE(decodeSweepRequestPayload(
            encodeSweepRequestPayload(request), decoded))
            << in.field;
        EXPECT_EQ(decoded.pointIndex, request.pointIndex);
        EXPECT_TRUE(sameFields(decoded.config, request.config))
            << in.field;
        EXPECT_EQ(decoded.channels, request.channels) << in.field;
        EXPECT_TRUE(sameFields(decoded.workload, request.workload))
            << in.field;
        EXPECT_EQ(decoded.maxCycles, request.maxCycles) << in.field;
        // The key the daemon derives from the decoded request must
        // equal the one the client derives from the original — the
        // cross-node cache-sharing contract.
        EXPECT_EQ(sweepKey(decoded.config, decoded.channels,
                           decoded.workload, decoded.maxCycles),
                  sweepKey(request.config, request.channels,
                           request.workload, request.maxCycles))
            << in.field;
    }
}

TEST(DistributedCodec, SweepRequestRejectsHostilePayloads)
{
    const std::vector<std::uint8_t> good =
        encodeSweepRequestPayload(sampleRequest(9002));
    SweepRequest out;

    // Truncation at every boundary fails cleanly.
    for (std::size_t keep = 0; keep < good.size(); ++keep) {
        const std::vector<std::uint8_t> cut(
            good.begin(),
            good.begin() + static_cast<std::ptrdiff_t>(keep));
        EXPECT_FALSE(decodeSweepRequestPayload(cut, out)) << keep;
    }
    // Trailing junk fails (payloads decode exactly).
    std::vector<std::uint8_t> padded = good;
    padded.push_back(0);
    EXPECT_FALSE(decodeSweepRequestPayload(padded, out));

    // Structurally valid but semantically hostile requests are
    // rejected by validation, not FT_FATAL: the daemon must answer
    // with an error frame, never die.
    SweepRequest hostile = sampleRequest(9003);
    hostile.config.d = hostile.config.n; // d > n/2
    EXPECT_FALSE(decodeSweepRequestPayload(
        encodeSweepRequestPayload(hostile), out));

    hostile = sampleRequest(9003);
    hostile.workload.injectionRate = 0.0;
    EXPECT_FALSE(decodeSweepRequestPayload(
        encodeSweepRequestPayload(hostile), out));

    hostile = sampleRequest(9003);
    hostile.workload.packetsPerPe = (1u << 20) + 1; // allocation bound
    EXPECT_FALSE(decodeSweepRequestPayload(
        encodeSweepRequestPayload(hostile), out));

    hostile = sampleRequest(9003);
    hostile.maxCycles = 0;
    EXPECT_FALSE(decodeSweepRequestPayload(
        encodeSweepRequestPayload(hostile), out));
}

TEST(DistributedCodec, SweepResultRoundTrips)
{
    const SynthResult res = cachedRunSynthetic(
        NocConfig::hoplite(4), 1, smallWorkloads(1, 9010).front());
    const std::vector<std::uint8_t> inner = encodeSynthResult(res);
    const std::vector<std::uint8_t> payload =
        encodeSweepResultPayload(7, true, inner);

    std::uint32_t point = 0;
    bool hit = false;
    SynthResult decoded;
    ASSERT_TRUE(decodeSweepResultPayload(payload, point, hit, decoded));
    EXPECT_EQ(point, 7u);
    EXPECT_TRUE(hit);
    EXPECT_EQ(resultHash(decoded), resultHash(res));

    // Hostile variants: truncated, inner-length mismatch, empty inner.
    std::vector<std::uint8_t> cut(payload.begin(), payload.end() - 1);
    EXPECT_FALSE(decodeSweepResultPayload(cut, point, hit, decoded));
    std::vector<std::uint8_t> padded = payload;
    padded.push_back(0);
    EXPECT_FALSE(decodeSweepResultPayload(padded, point, hit, decoded));
    EXPECT_FALSE(decodeSweepResultPayload(
        encodeSweepResultPayload(7, false, {}), point, hit, decoded));
}

TEST(DistributedCodec, MetricsPayloadRoundTrips)
{
    const std::map<std::string, double> values = {
        {"ftd.points_served", 12.0},
        {"sweep_cache.hits", 3.5},
        {"", -0.0},
    };
    std::map<std::string, double> decoded;
    ASSERT_TRUE(decodeMetricsPayload(encodeMetricsPayload(values),
                                     decoded));
    EXPECT_EQ(decoded, values);

    ASSERT_TRUE(decodeMetricsPayload(encodeMetricsPayload({}),
                                     decoded));
    EXPECT_TRUE(decoded.empty());

    // Count larger than the payload backs fails cleanly.
    net::WireWriter w;
    w.u32(1'000'000);
    EXPECT_FALSE(decodeMetricsPayload(w.take(), decoded));
}

TEST(Distributed, TwoDaemonSweepIsByteIdenticalToLocal)
{
    WithDaemon a, b;
    const NocConfig config = NocConfig::fastTrack(4, 2, 1);
    const std::vector<SyntheticWorkload> workloads =
        smallWorkloads(6, 9100);

    std::vector<SynthResult> remote;
    {
        WithRemote wr(loopbackConfig({a.port(), b.port()}));
        remote = runAll(config, workloads);
    }
    // remoteStats() reports this run, not process-cumulative totals.
    const RemoteStats after = remoteStats();
    EXPECT_EQ(after.pointsRemote, workloads.size());
    EXPECT_EQ(after.pointsFallback, 0u);

    // Round-robin sharding puts points on both daemons.
    EXPECT_GT(a.server.stats().pointsServed, 0u);
    EXPECT_GT(b.server.stats().pointsServed, 0u);
    EXPECT_EQ(a.server.stats().pointsServed +
                  b.server.stats().pointsServed,
              workloads.size());

    // Remote execution is invisible in the bytes: per point, the
    // local path produces the identical result.
    const std::vector<SynthResult> local = runAll(config, workloads);
    ASSERT_EQ(remote.size(), local.size());
    for (std::size_t i = 0; i < local.size(); ++i)
        EXPECT_EQ(resultHash(remote[i]), resultHash(local[i])) << i;
}

TEST(Distributed, WarmDaemonAnswersFromItsCache)
{
    WithDaemon daemon;
    const NocConfig config = NocConfig::hoplite(4);
    const std::vector<SyntheticWorkload> workloads =
        smallWorkloads(4, 9200);
    WithRemote wr(loopbackConfig({daemon.port()}));

    const std::vector<SynthResult> cold = runAll(config, workloads);
    const RemoteStats cold1 = remoteStats();
    EXPECT_EQ(cold1.pointsRemote, workloads.size());
    EXPECT_EQ(cold1.remoteCacheHits, 0u);

    // Same sweep again: every point travels the wire (the client's
    // own cache pre-pass is off) and the daemon replays its blob
    // cache instead of simulating. remoteStats() now describes the
    // warm run alone — the cold run's counters must not leak in
    // (the never-reset-counter regression).
    const std::vector<SynthResult> warm = runAll(config, workloads);
    const RemoteStats warm1 = remoteStats();
    EXPECT_EQ(warm1.pointsRemote, workloads.size());
    EXPECT_EQ(warm1.remoteCacheHits, workloads.size());
    // The lifetime view keeps accumulating across both runs.
    const RemoteStats life = remoteLifetimeStats();
    EXPECT_GE(life.pointsRemote, 2 * workloads.size());
    EXPECT_EQ(daemon.server.stats().cacheHits, workloads.size());
    for (std::size_t i = 0; i < workloads.size(); ++i)
        EXPECT_EQ(resultHash(warm[i]), resultHash(cold[i])) << i;

    // The daemon's telemetry epochs surfaced as client-side gauges.
    telemetry::MetricsRegistry metrics;
    reportRemoteStats(metrics);
    metrics.snapshot(0);
    const auto &values = metrics.epochs().back().values;
    const std::string label = "127.0.0.1:" +
                              std::to_string(daemon.port());
    EXPECT_EQ(values.count("remote." + label + ".ftd.points_served"),
              1u);
}

TEST(Distributed, DroppedEndpointStopsBeingExported)
{
    // Regression: endpoint gauges used to accumulate in a never-
    // cleared process-global map, so a daemon dropped from the
    // configuration kept being re-exported with stale values forever.
    // Gauges must describe the most recent run's endpoints only.
    WithDaemon a, b;
    const NocConfig config = NocConfig::fastTrack(4, 2, 1);
    const std::string label_a =
        "127.0.0.1:" + std::to_string(a.port());
    const std::string label_b =
        "127.0.0.1:" + std::to_string(b.port());

    {
        WithRemote wr(loopbackConfig({a.port()}));
        runAll(config, smallWorkloads(2, 9600));
    }
    telemetry::MetricsRegistry first;
    reportRemoteStats(first);
    first.snapshot(0);
    const auto &v1 = first.epochs().back().values;
    EXPECT_EQ(v1.count("remote." + label_a + ".ftd.points_served"),
              1u);

    {
        WithRemote wr(loopbackConfig({b.port()}));
        runAll(config, smallWorkloads(2, 9601));
    }
    telemetry::MetricsRegistry second;
    reportRemoteStats(second);
    second.snapshot(0);
    const auto &v2 = second.epochs().back().values;
    EXPECT_EQ(v2.count("remote." + label_b + ".ftd.points_served"),
              1u);
    EXPECT_EQ(v2.count("remote." + label_a + ".ftd.points_served"),
              0u);
}

TEST(Distributed, ExportedCounterNamesArePinned)
{
    // Every name the cache, pool, daemon and remote client export:
    // stats CSVs, CI steps and perfbench read these, so a rename is a
    // breaking change, never a refactor's side effect. The daemon's
    // endpoint label is replaced by <endpoint>.
    WithDaemon daemon;
    {
        WithRemote wr(loopbackConfig({daemon.port()}));
        runAll(NocConfig::hoplite(4), smallWorkloads(1, 9500));
    }
    telemetry::MetricsRegistry metrics;
    sweepCache().reportTo(metrics);
    sched::ensureGlobalPool().reportTo(metrics);
    daemon.server.reportTo(metrics);
    reportRemoteStats(metrics);
    metrics.snapshot(0);

    const std::string label =
        "remote.127.0.0.1:" + std::to_string(daemon.port()) + ".";
    std::vector<std::string> names;
    for (const auto &entry : metrics.epochs().back().values) {
        std::string name = entry.first;
        if (name.rfind(label, 0) == 0)
            name = "remote.<endpoint>." + name.substr(label.size());
        names.push_back(std::move(name));
    }
    std::sort(names.begin(), names.end());

    const std::vector<std::string> daemonNames = {
        "ftd.bad_requests",
        "ftd.cache_hits",
        "ftd.net.frames_in",
        "ftd.net.frames_out",
        "ftd.net.idle_timeouts",
        "ftd.net.injected_drops",
        "ftd.net.protocol_errors",
        "ftd.net.requests_served",
        "ftd.net.sessions_accepted",
        "ftd.net.sessions_rejected",
        "ftd.points_served",
        "ftd.slices_served",
        "sched.pool.inline_jobs",
        "sched.pool.jobs",
        "sched.pool.peak_jobs",
        "sched.pool.steals",
        "sched.pool.stolen_tasks",
        "sched.pool.tasks",
        "sched.pool.workers",
        "sweep_cache.bypasses",
        "sweep_cache.corrupt",
        "sweep_cache.disk_bytes",
        "sweep_cache.disk_hits",
        "sweep_cache.disk_writes",
        "sweep_cache.evictions",
        "sweep_cache.hits",
        "sweep_cache.memory_bytes",
        "sweep_cache.memory_evictions",
        "sweep_cache.misses",
        "sweep_cache.stores",
    };
    const std::vector<std::string> remoteNames = {
        "cache_hits",      "connect_failures", "error_frames",
        "local_cache_hits", "points_fallback", "points_remote",
        "reconnects",      "slices_fallback",  "slices_remote",
    };
    std::vector<std::string> expected = daemonNames;
    for (const std::string &name : daemonNames)
        expected.push_back("remote.<endpoint>." + name);
    for (const std::string &name : remoteNames) {
        expected.push_back("remote." + name);
        expected.push_back("remote.lifetime." + name);
    }
    std::sort(expected.begin(), expected.end());
    EXPECT_EQ(names, expected);
}

/** A synthetic run long enough to cut into several shard slices. */
SyntheticWorkload
shardWorkload()
{
    SyntheticWorkload w;
    w.pattern = TrafficPattern::random;
    w.injectionRate = 0.5;
    w.packetsPerPe = 96;
    w.seed = 9810;
    return w;
}

TEST(Distributed, EpochStreamingDaemonCannotHoldTheClient)
{
    WithDaemon daemon;
    EpochStreamingDaemon streaming(daemon.port(), true);
    const NocConfig config = NocConfig::fastTrack(4, 2, 1);
    const std::vector<SyntheticWorkload> workloads =
        smallWorkloads(4, 9800);
    const SyntheticWorkload w = shardWorkload();
    const RunResult whole = runSim({.config = &config, .workload = &w});
    ASSERT_TRUE(whole.synth.completed);

    std::vector<SynthResult> remote;
    RunResult sharded;
    {
        WithRemote wr(loopbackConfig({streaming.port()}));
        remote = runAll(config, workloads);
        EXPECT_EQ(remoteStats().pointsRemote, workloads.size());
        EXPECT_EQ(remoteStats().pointsFallback, 0u);
        RunRequest request;
        request.config = &config;
        request.workload = &w;
        sharded = runShardedSim(request, whole.synth.cycles / 4 + 1);
        EXPECT_GE(remoteStats().slicesRemote, 4u);
        EXPECT_EQ(remoteStats().slicesFallback, 0u);
    }
    // Every session, the sweep's and the one the sharded run held
    // across its slices, parted on its own as soon as it had the
    // epochs its requests are owed.
    EXPECT_GE(streaming.sessions(), 2);
    EXPECT_LT(streaming.maxStreamed(), EpochStreamingDaemon::kMaxStreamed);

    const std::vector<SynthResult> local = runAll(config, workloads);
    for (std::size_t i = 0; i < workloads.size(); ++i)
        EXPECT_EQ(resultHash(remote[i]), resultHash(local[i])) << i;
    EXPECT_TRUE(sharded.synth.completed);
    EXPECT_EQ(sharded.synth.cycles, whole.synth.cycles);
    EXPECT_EQ(hashStats(sharded.synth.stats), hashStats(whole.synth.stats));
}

TEST(Distributed, EpochsBeyondTheRequestsSentEndTheSession)
{
    // A peer that streams epochs and never answers: the epoch after
    // the last one owed is a rogue frame, so each attempt ends there
    // instead of waiting on, and the work falls back locally.
    EpochStreamingDaemon streaming(0, false);
    const NocConfig config = NocConfig::fastTrack(4, 2, 1);
    const std::vector<SyntheticWorkload> workloads =
        smallWorkloads(3, 9850);
    const SyntheticWorkload w = shardWorkload();
    const RunResult whole = runSim({.config = &config, .workload = &w});
    ASSERT_TRUE(whole.synth.completed);

    RemoteConfig remote = loopbackConfig({streaming.port()});
    remote.maxAttempts = 2;
    std::vector<SynthResult> viaFallback;
    RunResult sharded;
    {
        WithRemote wr(std::move(remote));
        viaFallback = runAll(config, workloads);
        EXPECT_EQ(remoteStats().pointsFallback, workloads.size());
        EXPECT_EQ(remoteStats().pointsRemote, 0u);
        RunRequest request;
        request.config = &config;
        request.workload = &w;
        sharded = runShardedSim(request, whole.synth.cycles / 4 + 1);
        EXPECT_EQ(remoteStats().slicesRemote, 0u);
        EXPECT_GE(remoteStats().slicesFallback, 4u);
    }
    EXPECT_GE(streaming.sessions(), 4);
    EXPECT_LT(streaming.maxStreamed(), EpochStreamingDaemon::kMaxStreamed);

    const std::vector<SynthResult> local = runAll(config, workloads);
    for (std::size_t i = 0; i < workloads.size(); ++i)
        EXPECT_EQ(resultHash(viaFallback[i]), resultHash(local[i])) << i;
    EXPECT_TRUE(sharded.synth.completed);
    EXPECT_EQ(hashStats(sharded.synth.stats), hashStats(whole.synth.stats));
}

TEST(Distributed, SweepSessionPartsWithoutTheEpochWait)
{
    // Three requests, one batch, one epoch: by its request count the
    // client could be owed two more epochs, yet it must say goodbye
    // as soon as its last answer is in rather than idle out the
    // kEpochDrainMs (250 ms) bound on each of them.
    const std::vector<SyntheticWorkload> workloads =
        smallWorkloads(3, 9870);
    OneBatchDaemon daemon(workloads.size());
    const NocConfig config = NocConfig::fastTrack(4, 2, 1);

    std::vector<SynthResult> remote;
    {
        WithRemote wr(loopbackConfig({daemon.port()}));
        remote = runAll(config, workloads);
        EXPECT_EQ(remoteStats().pointsRemote, workloads.size());
        EXPECT_EQ(remoteStats().pointsFallback, 0u);
    }
    const double gap = daemon.goodbyeGapMs();
    EXPECT_GE(gap, 0.0);
    EXPECT_LT(gap, 100.0);

    const std::vector<SynthResult> local = runAll(config, workloads);
    for (std::size_t i = 0; i < workloads.size(); ++i)
        EXPECT_EQ(resultHash(remote[i]), resultHash(local[i])) << i;
}

TEST(Distributed, DeadEndpointFallsBackToLocalScalarPath)
{
    const NocConfig config = NocConfig::fastTrack(4, 2, 1);
    // Without, then with, the client's local cache pre-pass. Either
    // way each fallback point is probed once: one miss, one store.
    for (const bool local_cache : {false, true}) {
        const std::vector<SyntheticWorkload> workloads =
            smallWorkloads(3, local_cache ? 9350 : 9300);
        RemoteConfig remote = loopbackConfig({deadPort()});
        remote.maxAttempts = 2;
        remote.connectTimeoutMs = 200;
        remote.useLocalCache = local_cache;
        const sched::BlobCache::Stats before = sweepCache().stats();
        std::vector<SynthResult> viaFallback;
        {
            WithRemote wr(std::move(remote));
            viaFallback = runAll(config, workloads);
        }
        const sched::BlobCache::Stats cache = sweepCache().stats();
        EXPECT_EQ(cache.misses - before.misses, workloads.size())
            << local_cache;
        EXPECT_EQ(cache.stores - before.stores, workloads.size())
            << local_cache;
        const RemoteStats after = remoteStats();
        EXPECT_EQ(after.pointsFallback, workloads.size());
        EXPECT_GE(after.connectFailures, 2u);
        EXPECT_EQ(after.pointsRemote, 0u);

        const std::vector<SynthResult> local = runAll(config, workloads);
        for (std::size_t i = 0; i < workloads.size(); ++i)
            EXPECT_EQ(resultHash(viaFallback[i]), resultHash(local[i]))
                << i;
    }
}

TEST(Distributed, ClientRidesOutInjectedMidStreamDrops)
{
    // The daemon hard-closes every session after two response frames
    // — a worker killed mid-sweep. The kill is a real TCP reset, and
    // a reset may destroy results already queued in the client's
    // receive buffer, so whether a given session counts as progress
    // is a kernel-level race. The contract under test is the
    // degradation path: every point completes with byte-identical
    // results, over reconnects while the daemon looks alive and via
    // local fallback once the retry budget is spent.
    net::ServerConfig config;
    config.dropAfterFrames = 2;
    WithDaemon daemon(std::move(config));
    const NocConfig noc = NocConfig::fastTrack(4, 2, 1);
    const std::vector<SyntheticWorkload> workloads =
        smallWorkloads(5, 9400);

    std::vector<SynthResult> remote;
    {
        WithRemote wr(loopbackConfig({daemon.port()}));
        remote = runAll(noc, workloads);
    }
    const RemoteStats after = remoteStats();
    EXPECT_EQ(after.pointsRemote + after.pointsFallback,
              workloads.size());
    EXPECT_GE(after.reconnects, 2u);
    EXPECT_GE(daemon.server.netStats().injectedDrops, 2u);

    const std::vector<SynthResult> local = runAll(noc, workloads);
    for (std::size_t i = 0; i < workloads.size(); ++i)
        EXPECT_EQ(resultHash(remote[i]), resultHash(local[i])) << i;
}

/** Open a raw-socket session on @p port, doing the hello handshake
 *  by hand; @p schema receives the schema the daemon advertised. */
void
openRawSession(std::uint16_t port, net::Socket &sock,
               std::uint32_t &schema)
{
    std::string error;
    sock = net::connectTo("127.0.0.1", port, 2'000, error);
    ASSERT_TRUE(sock.valid()) << error;
    net::Frame hello;
    hello.type = net::MessageType::hello;
    net::WireWriter hw;
    hw.u32(net::kWireVersion);
    hw.u32(kSweepCacheSchema);
    hw.u32(8);
    hello.payload = hw.take();
    ASSERT_EQ(net::sendFrame(sock, hello, 2'000),
              net::FrameStatus::ok);
    net::Frame ack;
    ASSERT_EQ(net::recvFrame(sock, ack, 2'000, 2'000),
              net::FrameStatus::ok);
    ASSERT_EQ(ack.type, net::MessageType::helloAck);
    net::WireReader ar(ack.payload);
    std::uint32_t version = 0, granted = 0;
    ASSERT_TRUE(ar.u32(version) && ar.u32(schema) && ar.u32(granted));
}

/** Send one sweepRequest frame per request, ids @p first_id onward,
 *  back to back so the daemon drains them as one pipelined batch. */
void
sendSweepRequests(net::Socket &sock,
                  const std::vector<SweepRequest> &requests,
                  std::uint64_t first_id)
{
    for (std::size_t i = 0; i < requests.size(); ++i) {
        net::Frame frame;
        frame.type = net::MessageType::sweepRequest;
        frame.requestId = first_id + i;
        frame.payload = encodeSweepRequestPayload(requests[i]);
        ASSERT_EQ(net::sendFrame(sock, frame, 2'000),
                  net::FrameStatus::ok);
    }
}

/** Read frames until @p count sweepResult frames arrived; returns
 *  them in arrival order. @p epoch receives the last metricsEpoch
 *  seen (every served batch ends with one). */
std::vector<net::Frame>
recvSweepResults(net::Socket &sock, std::size_t count,
                 std::map<std::string, double> &epoch)
{
    std::vector<net::Frame> results;
    net::Frame frame;
    while (results.size() < count ||
           frame.type != net::MessageType::metricsEpoch) {
        if (net::recvFrame(sock, frame, 60'000, 10'000) !=
            net::FrameStatus::ok) {
            ADD_FAILURE() << "session ended after " << results.size()
                          << " of " << count << " results";
            break;
        }
        if (frame.type == net::MessageType::metricsEpoch)
            EXPECT_TRUE(decodeMetricsPayload(frame.payload, epoch));
        else if (frame.type == net::MessageType::sweepResult)
            results.push_back(frame);
        else
            ADD_FAILURE() << "unexpected frame type";
    }
    return results;
}

TEST(Distributed, HostileRequestGetsErrorFrameAndSessionSurvives)
{
    WithDaemon daemon;

    // Raw-socket session: handshake by hand.
    net::Socket sock;
    std::uint32_t schema = 0;
    ASSERT_NO_FATAL_FAILURE(openRawSession(daemon.port(), sock, schema));
    EXPECT_EQ(schema, kSweepCacheSchema); // daemon speaks its build

    // A sweepRequest whose payload is garbage: answered with a
    // kErrBadRequest error frame (echoing the request id), followed
    // by the batch's telemetry epoch — and the session stays up.
    net::Frame bad;
    bad.type = net::MessageType::sweepRequest;
    bad.requestId = 41;
    bad.payload = {0xde, 0xad, 0xbe, 0xef};
    ASSERT_EQ(net::sendFrame(sock, bad, 2'000), net::FrameStatus::ok);
    net::Frame reply;
    ASSERT_EQ(net::recvFrame(sock, reply, 10'000, 2'000),
              net::FrameStatus::ok);
    ASSERT_EQ(reply.type, net::MessageType::error);
    EXPECT_EQ(reply.requestId, 41u);
    std::uint32_t code = 0;
    std::string message;
    ASSERT_TRUE(net::parseErrorFrame(reply, code, message));
    EXPECT_EQ(code, net::kErrBadRequest);
    ASSERT_EQ(net::recvFrame(sock, reply, 10'000, 2'000),
              net::FrameStatus::ok);
    EXPECT_EQ(reply.type, net::MessageType::metricsEpoch);

    // The same session then serves a valid point.
    SweepRequest request = sampleRequest(9500);
    request.maxCycles = kDefaultMaxCycles;
    net::Frame good;
    good.type = net::MessageType::sweepRequest;
    good.requestId = 42;
    good.payload = encodeSweepRequestPayload(request);
    ASSERT_EQ(net::sendFrame(sock, good, 2'000), net::FrameStatus::ok);
    ASSERT_EQ(net::recvFrame(sock, reply, 60'000, 10'000),
              net::FrameStatus::ok);
    ASSERT_EQ(reply.type, net::MessageType::sweepResult);
    EXPECT_EQ(reply.requestId, 42u);
    std::uint32_t point = 0;
    bool hit = false;
    SynthResult result;
    ASSERT_TRUE(
        decodeSweepResultPayload(reply.payload, point, hit, result));
    EXPECT_EQ(point, request.pointIndex);
    ASSERT_EQ(net::recvFrame(sock, reply, 10'000, 2'000),
              net::FrameStatus::ok);
    EXPECT_EQ(reply.type, net::MessageType::metricsEpoch);
    std::map<std::string, double> epoch;
    ASSERT_TRUE(decodeMetricsPayload(reply.payload, epoch));
    EXPECT_GE(epoch.at("ftd.points_served"), 1.0);
    EXPECT_GE(epoch.at("ftd.bad_requests"), 1.0);

    net::Frame goodbye;
    goodbye.type = net::MessageType::goodbye;
    ASSERT_EQ(net::sendFrame(sock, goodbye, 2'000),
              net::FrameStatus::ok);
    sock.close();

    daemon.server.stop();
    EXPECT_EQ(daemon.server.stats().badRequests, 1u);
    EXPECT_EQ(daemon.server.stats().pointsServed, 1u);
    EXPECT_EQ(daemon.server.netStats().protocolErrors, 0u);
}

/** Send @p frame, then expect a kErrBadRequest answer to it followed
 *  by its batch's telemetry epoch. */
void
expectBadRequest(net::Socket &sock, const net::Frame &frame)
{
    ASSERT_EQ(net::sendFrame(sock, frame, 2'000), net::FrameStatus::ok);
    net::Frame reply;
    ASSERT_EQ(net::recvFrame(sock, reply, 10'000, 2'000),
              net::FrameStatus::ok);
    ASSERT_EQ(reply.type, net::MessageType::error);
    EXPECT_EQ(reply.requestId, frame.requestId);
    std::uint32_t code = 0;
    std::string message;
    ASSERT_TRUE(net::parseErrorFrame(reply, code, message));
    EXPECT_EQ(code, net::kErrBadRequest) << message;
    ASSERT_EQ(net::recvFrame(sock, reply, 10'000, 2'000),
              net::FrameStatus::ok);
    EXPECT_EQ(reply.type, net::MessageType::metricsEpoch);
}

TEST(Distributed, BitComplementOnNonPowerOfTwoPeCountIsABadRequest)
{
    // BITCOMPL needs a power-of-two PE count and a 6x6 NoC has 36. The
    // daemon refuses such a sweep point and such a slice, where it
    // used to exit inside DestinationGenerator, and the session then
    // serves a valid point.
    WithDaemon daemon;
    net::Socket sock;
    std::uint32_t schema = 0;
    ASSERT_NO_FATAL_FAILURE(openRawSession(daemon.port(), sock, schema));

    SweepRequest point = sampleRequest(9600);
    point.config = NocConfig::hoplite(6);
    point.channels = 1;
    point.workload.pattern = TrafficPattern::bitComplement;
    net::Frame frame;
    frame.type = net::MessageType::sweepRequest;
    frame.requestId = 61;
    frame.payload = encodeSweepRequestPayload(point);
    ASSERT_NO_FATAL_FAILURE(expectBadRequest(sock, frame));

    ShardSliceRequest slice;
    slice.config = point.config;
    slice.workload = point.workload;
    slice.sliceCycles = 1'000;
    slice.runMaxCycles = kDefaultMaxCycles;
    slice.key = slice.inputKey();
    frame.type = net::MessageType::snapshotRequest;
    frame.requestId = 62;
    frame.payload = encodeShardSliceRequestPayload(slice);
    ASSERT_NO_FATAL_FAILURE(expectBadRequest(sock, frame));

    SweepRequest good = sampleRequest(9601);
    good.maxCycles = kDefaultMaxCycles;
    std::map<std::string, double> epoch;
    ASSERT_NO_FATAL_FAILURE(sendSweepRequests(sock, {good}, 63));
    const std::vector<net::Frame> replies =
        recvSweepResults(sock, 1, epoch);
    ASSERT_EQ(replies.size(), 1u);
    EXPECT_EQ(replies[0].requestId, 63u);

    net::Frame goodbye;
    goodbye.type = net::MessageType::goodbye;
    ASSERT_EQ(net::sendFrame(sock, goodbye, 2'000),
              net::FrameStatus::ok);
    sock.close();
    daemon.server.stop();
    EXPECT_EQ(daemon.server.stats().badRequests, 2u);
    EXPECT_EQ(daemon.server.stats().pointsServed, 1u);
    EXPECT_EQ(daemon.server.stats().slicesServed, 0u);
}

TEST(Distributed, MixedConfigBatchAnswersInArrivalOrder)
{
    // One pipelined batch whose requests alternate between two
    // configs. Each cache miss is its own pool item, so the daemon
    // must still answer strictly in arrival order, with bytes equal
    // to a local run of the same point.
    WithDaemon daemon;
    net::Socket sock;
    std::uint32_t schema = 0;
    ASSERT_NO_FATAL_FAILURE(openRawSession(daemon.port(), sock, schema));

    const NocConfig configs[] = {NocConfig::hoplite(4),
                                 NocConfig::fastTrack(8, 2, 1)};
    const std::vector<SyntheticWorkload> workloads =
        smallWorkloads(6, 9700);
    std::vector<SweepRequest> requests(workloads.size());
    std::vector<std::vector<std::uint8_t>> local(workloads.size());
    for (std::size_t i = 0; i < requests.size(); ++i) {
        requests[i].pointIndex = static_cast<std::uint32_t>(i);
        requests[i].config = configs[i % 2];
        requests[i].workload = workloads[i];
        // Uncached, so the daemon (which shares this process's sweep
        // cache) still sees the cold pass as misses.
        local[i] = encodeSynthResult(
            runSynthetic(requests[i].config, 1, workloads[i]));
    }

    // Cold, then the same batch again: every point now a cache hit.
    // A cold point is probed once, so it counts one miss.
    for (const bool warm : {false, true}) {
        const std::uint64_t first_id = warm ? 200 : 100;
        const sched::BlobCache::Stats before = sweepCache().stats();
        ASSERT_NO_FATAL_FAILURE(
            sendSweepRequests(sock, requests, first_id));
        std::map<std::string, double> epoch;
        const std::vector<net::Frame> replies =
            recvSweepResults(sock, requests.size(), epoch);
        ASSERT_EQ(replies.size(), requests.size());
        const sched::BlobCache::Stats cache = sweepCache().stats();
        const std::uint64_t cold = warm ? 0 : requests.size();
        EXPECT_EQ(cache.misses - before.misses, cold) << warm;
        EXPECT_EQ(cache.stores - before.stores, cold) << warm;
        for (std::size_t i = 0; i < replies.size(); ++i) {
            EXPECT_EQ(replies[i].requestId, first_id + i);
            std::uint32_t point = 0;
            bool hit = false;
            SynthResult result;
            ASSERT_TRUE(decodeSweepResultPayload(replies[i].payload,
                                                 point, hit, result));
            EXPECT_EQ(point, i);
            EXPECT_EQ(hit, warm) << i;
            EXPECT_EQ(encodeSynthResult(result), local[i]) << i;
        }
        EXPECT_EQ(epoch.at("ftd.cache_hits"),
                  warm ? static_cast<double>(requests.size()) : 0.0);
    }

    net::Frame goodbye;
    goodbye.type = net::MessageType::goodbye;
    ASSERT_EQ(net::sendFrame(sock, goodbye, 2'000),
              net::FrameStatus::ok);
    sock.close();
    daemon.server.stop();
    EXPECT_EQ(daemon.server.stats().pointsServed, 2 * requests.size());
    EXPECT_EQ(daemon.server.stats().cacheHits, requests.size());
}

} // namespace
} // namespace fasttrack
