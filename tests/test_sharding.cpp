/**
 * @file
 * Temporal sharding: one long run executed as checkpoint slices
 * across ftd daemons (docs/distributed.md, "Temporal sharding").
 * Pins the slice payload codecs against hostile input, message
 * fragmentation over the frame layer, the daemon's slice handler
 * (typed rejections, never a crash), and the end-to-end driver
 * contract — a sharded run's merged stats are bit-identical to the
 * uninterrupted local run, and any fleet failure degrades to local
 * completion, never to a wrong or partial result.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "golden_hash.hpp"
#include "net/codec.hpp"
#include "net/endpoint.hpp"
#include "net/frame.hpp"
#include "net/socket.hpp"
#include "net/wire.hpp"
#include "noc/engine_state.hpp"
#include "sim/checkpoint.hpp"
#include "sim/ftd_server.hpp"
#include "sim/remote.hpp"
#include "sim/simulation.hpp"
#include "sim/sweep_cache.hpp"
#include "workloads/dataflow.hpp"

namespace fasttrack {
namespace {

SyntheticWorkload
shardWorkload()
{
    SyntheticWorkload w;
    w.pattern = TrafficPattern::random;
    w.injectionRate = 0.5;
    w.packetsPerPe = 192;
    w.seed = 11;
    return w;
}

Trace
shardTrace()
{
    LuDagParams params{"shard_lu", 600, 8.0, 1.8, 3, 13};
    return dataflowTrace(sparseLuDag(params), 4);
}

/** Install a remote config for the scope, clear it on exit. */
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
 * A hostile daemon: speaks the handshake correctly, then answers
 * every slice request on every connection with one canned
 * snapshotResult payload — the wire-level adversary the client's
 * answer validation must survive.
 */
class HostileDaemon
{
  public:
    explicit HostileDaemon(std::vector<std::uint8_t> result_payload)
        : payload_(std::move(result_payload))
    {
        std::string error;
        EXPECT_TRUE(listener_.open("127.0.0.1", 0, error)) << error;
        thread_ = std::thread([this] { serve(); });
    }
    ~HostileDaemon()
    {
        // Let the accept timeout expire rather than closing the
        // listener under the serve thread's feet.
        stop_.store(true);
        if (thread_.joinable())
            thread_.join();
        listener_.close();
    }
    std::uint16_t port() { return listener_.boundPort(); }

  private:
    void serve()
    {
        while (!stop_.load()) {
            net::Socket session = listener_.accept(100);
            if (!session.valid())
                continue;
            net::Frame hello;
            if (net::recvFrame(session, hello, 2'000, 2'000) !=
                net::FrameStatus::ok)
                continue;
            net::Frame ack;
            ack.type = net::MessageType::helloAck;
            net::WireWriter w;
            w.u32(net::kWireVersion);
            w.u32(kSweepCacheSchema);
            w.u32(8);
            ack.payload = w.take();
            if (net::sendFrame(session, ack, 2'000) !=
                net::FrameStatus::ok)
                continue;
            net::Frame request;
            if (net::recvMessage(session, request, 5'000, 2'000) !=
                net::FrameStatus::ok)
                continue;
            net::Frame reply;
            reply.type = net::MessageType::snapshotResult;
            reply.requestId = request.requestId;
            reply.payload = payload_;
            (void)net::sendMessage(session, reply, 2'000);
        }
    }

    net::Listener listener_;
    std::vector<std::uint8_t> payload_;
    std::thread thread_;
    std::atomic<bool> stop_{false};
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

/** A first-slice request for the standard synthetic shard run. */
ShardSliceRequest
sampleSliceRequest()
{
    ShardSliceRequest request;
    request.kind = SnapshotKind::synthetic;
    request.config = NocConfig::fastTrack(4, 2, 1);
    request.channels = 1;
    request.workload = shardWorkload();
    request.sliceCycles = 64;
    request.runMaxCycles = 100'000;
    request.key = checkpointKey(request.config, 1, request.workload);
    return request;
}

/** A first-slice request for the standard sharded trace replay. */
ShardSliceRequest
sampleTraceSliceRequest()
{
    ShardSliceRequest request;
    request.kind = SnapshotKind::trace;
    request.config = NocConfig::fastTrack(4, 2, 1);
    request.channels = 1;
    request.trace = shardTrace();
    request.sliceCycles = 64;
    request.runMaxCycles = 100'000;
    request.key = checkpointKey(request.config, 1, request.trace);
    return request;
}

/** Capture a real mid-run snapshot to embed in wire payloads. */
Snapshot
capturedSnapshot(const ShardSliceRequest &request)
{
    const bool synthetic = request.kind == SnapshotKind::synthetic;
    auto noc = makeNoc(request.config, 1);
    Snapshot snap;
    RunRequest run;
    run.device = noc.get();
    run.workload = synthetic ? &request.workload : nullptr;
    run.trace = synthetic ? nullptr : &request.trace;
    run.sim.maxCycles = request.sliceCycles;
    run.sim.captureFinal = &snap;
    const RunResult res = runSim(run);
    EXPECT_TRUE(res.finalCaptured);
    EXPECT_FALSE(synthetic ? res.synth.completed : res.trace.completed);
    snap.trimState();
    return snap;
}

/** Trace snapshots that decode, match their key and pass every
 *  range check, yet describe no state the replay can reach: an
 *  in-flight packet tagged beyond the trace, and dependency counters
 *  zeroed while tokens are still undelivered. */
std::vector<Snapshot>
inconsistentTraceSnapshots(const ShardSliceRequest &request)
{
    const Snapshot real = capturedSnapshot(request);
    EXPECT_FALSE(real.engine.slabPackets.empty());
    EXPECT_TRUE(std::any_of(real.replay.pendingDeps.begin(),
                            real.replay.pendingDeps.end(),
                            [](std::uint32_t n) { return n > 0; }));
    Snapshot unknown_tag = real;
    if (!unknown_tag.engine.slabPackets.empty())
        unknown_tag.engine.slabPackets.front().tag =
            request.trace.messages.size();
    Snapshot zeroed = real;
    std::fill(zeroed.replay.pendingDeps.begin(),
              zeroed.replay.pendingDeps.end(), 0u);
    return {unknown_tag, zeroed};
}

TEST(ShardingCodec, SliceRequestRoundTripsSynthetic)
{
    ShardSliceRequest request = sampleSliceRequest();
    request.hasSnapshot = true;
    request.snapshot = capturedSnapshot(request);

    ShardSliceRequest decoded;
    ASSERT_TRUE(decodeShardSliceRequestPayload(
        encodeShardSliceRequestPayload(request), decoded));
    EXPECT_EQ(decoded.kind, request.kind);
    EXPECT_EQ(decoded.config.n, request.config.n);
    EXPECT_EQ(decoded.config.d, request.config.d);
    EXPECT_EQ(decoded.channels, 1u);
    EXPECT_EQ(decoded.workload.seed, request.workload.seed);
    EXPECT_EQ(decoded.sliceCycles, request.sliceCycles);
    EXPECT_EQ(decoded.runMaxCycles, request.runMaxCycles);
    EXPECT_EQ(decoded.key, request.key);
    ASSERT_TRUE(decoded.hasSnapshot);
    EXPECT_EQ(decoded.snapshot.cycle(), request.snapshot.cycle());
    // The daemon re-derives the key from the decoded inputs and must
    // agree — the trust anchor of the handoff.
    EXPECT_EQ(checkpointKey(decoded.config, decoded.channels,
                            decoded.workload),
              request.key);
}

TEST(ShardingCodec, SliceRequestRoundTripsTrace)
{
    ShardSliceRequest request;
    request.kind = SnapshotKind::trace;
    request.config = NocConfig::hoplite(4);
    request.channels = 1;
    request.trace = shardTrace();
    request.sliceCycles = 100;
    request.runMaxCycles = 50'000;
    request.key = checkpointKey(request.config, 1, request.trace);

    ShardSliceRequest decoded;
    ASSERT_TRUE(decodeShardSliceRequestPayload(
        encodeShardSliceRequestPayload(request), decoded));
    EXPECT_EQ(decoded.kind, SnapshotKind::trace);
    EXPECT_EQ(decoded.trace.name, request.trace.name);
    EXPECT_EQ(decoded.trace.n, request.trace.n);
    ASSERT_EQ(decoded.trace.messages.size(),
              request.trace.messages.size());
    const std::size_t last = request.trace.messages.size() - 1;
    const TraceMessage &a = request.trace.messages[last];
    const TraceMessage &b = decoded.trace.messages[last];
    EXPECT_EQ(b.src, a.src);
    EXPECT_EQ(b.dst, a.dst);
    EXPECT_TRUE(std::ranges::equal(decoded.trace.depsOf(last),
                                   request.trace.depsOf(last)));
    EXPECT_FALSE(decoded.hasSnapshot);
    EXPECT_EQ(checkpointKey(decoded.config, decoded.channels,
                            decoded.trace),
              request.key);
}

TEST(ShardingCodec, SliceRequestRejectsHostilePayloads)
{
    ShardSliceRequest request = sampleSliceRequest();
    request.hasSnapshot = true;
    request.snapshot = capturedSnapshot(request);
    const std::vector<std::uint8_t> good =
        encodeShardSliceRequestPayload(request);
    ShardSliceRequest out;

    // Truncation at every boundary fails cleanly (never crashes,
    // never over-allocates).
    for (std::size_t keep = 0; keep < good.size();
         keep += (keep < 128 ? 1 : 97)) {
        const std::vector<std::uint8_t> cut(
            good.begin(),
            good.begin() + static_cast<std::ptrdiff_t>(keep));
        EXPECT_FALSE(decodeShardSliceRequestPayload(cut, out)) << keep;
    }
    // Trailing junk fails (payloads decode exactly).
    std::vector<std::uint8_t> padded = good;
    padded.push_back(0);
    EXPECT_FALSE(decodeShardSliceRequestPayload(padded, out));

    // Unknown snapshot kind.
    std::vector<std::uint8_t> badKind = good;
    badKind[0] = 0x7f;
    EXPECT_FALSE(decodeShardSliceRequestPayload(badKind, out));

    // Multi-channel slices are impossible (engine-state capture is
    // single-channel); must be a decode rejection, not a daemon abort.
    ShardSliceRequest multi = sampleSliceRequest();
    multi.channels = 2;
    EXPECT_FALSE(decodeShardSliceRequestPayload(
        encodeShardSliceRequestPayload(multi), out));

    // Zero budgets.
    ShardSliceRequest zero = sampleSliceRequest();
    zero.sliceCycles = 0;
    EXPECT_FALSE(decodeShardSliceRequestPayload(
        encodeShardSliceRequestPayload(zero), out));
    zero = sampleSliceRequest();
    zero.runMaxCycles = 0;
    EXPECT_FALSE(decodeShardSliceRequestPayload(
        encodeShardSliceRequestPayload(zero), out));
}

TEST(ShardingCodec, SliceRequestRejectsOversizedBudget)
{
    // The daemon runs a slice synchronously in its frame handler, so
    // the decoder caps the budget: without it a single frame could
    // demand up to ~2^64 cycles of compute.
    ShardSliceRequest request = sampleSliceRequest();
    request.sliceCycles = kMaxSliceCycles;
    ShardSliceRequest out;
    EXPECT_TRUE(decodeShardSliceRequestPayload(
        encodeShardSliceRequestPayload(request), out));
    EXPECT_EQ(out.sliceCycles, kMaxSliceCycles);

    request.sliceCycles = kMaxSliceCycles + 1;
    EXPECT_FALSE(decodeShardSliceRequestPayload(
        encodeShardSliceRequestPayload(request), out));
}

TEST(ShardingCodec, TracePayloadRejectsForgedCounts)
{
    const NocConfig cfg = NocConfig::hoplite(4);
    // A trace slice request up to its message count.
    const auto header = [&cfg](net::WireWriter &w) {
        w.u8(static_cast<std::uint8_t>(SnapshotKind::trace));
        w.u32(cfg.n);
        w.u32(cfg.d);
        w.u32(cfg.r);
        w.u32(static_cast<std::uint32_t>(cfg.variant));
        w.u8(0);
        w.u8(0);
        w.u8(0);
        w.u32(cfg.shortLinkStages);
        w.u32(cfg.expressLinkStages);
        w.u32(1); // channels
        w.str("forged");
        w.u32(4); // trace.n
    };

    // A forged message count larger than the bytes backing it must be
    // rejected before any allocation happens.
    net::WireWriter w;
    header(w);
    w.u64(0xffff'ffff'ffff'ffffull); // message count >> payload
    ShardSliceRequest out;
    EXPECT_FALSE(decodeShardSliceRequestPayload(w.take(), out));

    // Same for a forged per-message dependency count.
    net::WireWriter d;
    header(d);
    d.u64(1);          // one message...
    d.u64(0);          // id
    d.u32(0);          // src
    d.u32(1);          // dst
    d.u64(0);          // earliest
    d.u64(0);          // delayAfterDeps
    d.u32(0xffffffff); // ...claiming 4 billion deps
    EXPECT_FALSE(decodeShardSliceRequestPayload(d.take(), out));

    // A whole request whose one record carries `id`: only id 0, its
    // index, decodes.
    const auto one_record = [&header](std::uint64_t id) {
        net::WireWriter r;
        header(r);
        r.u64(1);
        r.u64(id);
        r.u32(0);      // src
        r.u32(1);      // dst
        r.u64(0);      // earliest
        r.u64(0);      // delayAfterDeps
        r.u32(0);      // no deps
        r.u64(100);    // sliceCycles
        r.u64(50'000); // runMaxCycles
        r.u64(0);      // key
        r.u8(0);       // no snapshot
        return r.take();
    };
    EXPECT_TRUE(decodeShardSliceRequestPayload(one_record(0), out));
    EXPECT_FALSE(decodeShardSliceRequestPayload(one_record(7), out));

    // A trace whose messages grew without add() claims more records
    // than its dependency index lets the encoder write.
    ShardSliceRequest grown;
    grown.kind = SnapshotKind::trace;
    grown.config = cfg;
    grown.trace = shardTrace();
    grown.trace.messages.push_back(grown.trace.messages.front());
    grown.sliceCycles = 100;
    EXPECT_FALSE(decodeShardSliceRequestPayload(
        encodeShardSliceRequestPayload(grown), out));
}

TEST(ShardingCodec, SliceResultRoundTripsAndRejectsLyingPeer)
{
    const ShardSliceRequest request = sampleSliceRequest();

    // An unfinished slice: stats + handoff snapshot.
    ShardSliceResult unfinished;
    unfinished.kind = SnapshotKind::synthetic;
    unfinished.done = false;
    unfinished.synth = runSynthetic(request.config, 1, request.workload,
                                    SimConfig{.maxCycles = 64});
    unfinished.hasSnapshot = true;
    unfinished.snapshot = capturedSnapshot(request);

    ShardSliceResult decoded;
    ASSERT_TRUE(decodeShardSliceResultPayload(
        encodeShardSliceResultPayload(unfinished), decoded));
    EXPECT_FALSE(decoded.done);
    ASSERT_TRUE(decoded.hasSnapshot);
    EXPECT_EQ(hashStats(decoded.synth.stats),
              hashStats(unfinished.synth.stats));
    EXPECT_EQ(decoded.snapshot.cycle(), unfinished.snapshot.cycle());

    // A finished slice: stats only.
    ShardSliceResult finished = unfinished;
    finished.done = true;
    finished.hasSnapshot = false;
    finished.snapshot = Snapshot{};
    ASSERT_TRUE(decodeShardSliceResultPayload(
        encodeShardSliceResultPayload(finished), decoded));
    EXPECT_TRUE(decoded.done);
    EXPECT_FALSE(decoded.hasSnapshot);

    // A lying peer: done with a snapshot, or unfinished without one —
    // both violate the handoff contract and must not decode.
    ShardSliceResult lying = unfinished;
    lying.done = true; // done == hasSnapshot == true
    EXPECT_FALSE(decodeShardSliceResultPayload(
        encodeShardSliceResultPayload(lying), decoded));
    lying = finished;
    lying.done = false; // done == hasSnapshot == false
    EXPECT_FALSE(decodeShardSliceResultPayload(
        encodeShardSliceResultPayload(lying), decoded));

    // Truncation battery over the unfinished (snapshot-bearing) form.
    const std::vector<std::uint8_t> good =
        encodeShardSliceResultPayload(unfinished);
    for (std::size_t keep = 0; keep < good.size();
         keep += (keep < 128 ? 1 : 97)) {
        const std::vector<std::uint8_t> cut(
            good.begin(),
            good.begin() + static_cast<std::ptrdiff_t>(keep));
        EXPECT_FALSE(decodeShardSliceResultPayload(cut, decoded))
            << keep;
    }
    std::vector<std::uint8_t> padded = good;
    padded.push_back(0);
    EXPECT_FALSE(decodeShardSliceResultPayload(padded, decoded));
}

TEST(ShardingCodec, SliceContinuationRoundTripsAndRejectsTruncation)
{
    const ShardSliceRequest request = sampleSliceRequest();
    ShardSliceContinuation next;
    next.key = request.key;
    next.snapshot = capturedSnapshot(request);
    const std::vector<std::uint8_t> good =
        encodeShardSliceContinuationPayload(next);

    ShardSliceContinuation decoded;
    ASSERT_TRUE(decodeShardSliceContinuationPayload(good, decoded));
    EXPECT_EQ(decoded.key, next.key);
    EXPECT_EQ(decoded.snapshot.kind, SnapshotKind::synthetic);
    EXPECT_EQ(encodeSnapshot(decoded.snapshot),
              encodeSnapshot(next.snapshot));

    // Cut at every length, or padded, it never decodes.
    for (std::size_t keep = 0; keep < good.size(); ++keep) {
        const std::vector<std::uint8_t> cut(
            good.begin(),
            good.begin() + static_cast<std::ptrdiff_t>(keep));
        EXPECT_FALSE(decodeShardSliceContinuationPayload(cut, decoded))
            << keep;
    }
    std::vector<std::uint8_t> padded = good;
    padded.push_back(0);
    EXPECT_FALSE(decodeShardSliceContinuationPayload(padded, decoded));
}

TEST(FrameMessage, FragmentsAndReassembles)
{
    net::Listener listener;
    std::string error;
    ASSERT_TRUE(listener.open("127.0.0.1", 0, error)) << error;
    net::Socket client = net::connectTo(
        "127.0.0.1", listener.boundPort(), 2'000, error);
    ASSERT_TRUE(client.valid()) << error;
    net::Socket server = listener.accept(2'000);
    ASSERT_TRUE(server.valid());

    // A payload forced through tiny fragments reassembles exactly.
    net::Frame big;
    big.type = net::MessageType::snapshotRequest;
    big.requestId = 77;
    big.payload.resize(64 * 1024);
    for (std::size_t i = 0; i < big.payload.size(); ++i)
        big.payload[i] = static_cast<std::uint8_t>(i * 131);
    ASSERT_EQ(net::sendMessage(client, big, 2'000,
                               /*max_fragment=*/4096),
              net::FrameStatus::ok);
    net::Frame out;
    ASSERT_EQ(net::recvMessage(server, out, 2'000, 2'000),
              net::FrameStatus::ok);
    EXPECT_EQ(out.type, big.type);
    EXPECT_EQ(out.requestId, big.requestId);
    EXPECT_FALSE(out.partial);
    EXPECT_EQ(out.payload, big.payload);

    // The receiver bounds total reassembled size: the same message
    // against a small budget is malformed, not an allocation.
    ASSERT_EQ(net::sendMessage(client, big, 2'000, 4096),
              net::FrameStatus::ok);
    EXPECT_EQ(net::recvMessage(server, out, 2'000, 2'000,
                               /*max_message_bytes=*/16 * 1024),
              net::FrameStatus::malformed);
}

TEST(FrameMessage, RejectsBrokenFragmentChains)
{
    net::Listener listener;
    std::string error;
    ASSERT_TRUE(listener.open("127.0.0.1", 0, error)) << error;
    net::Socket client = net::connectTo(
        "127.0.0.1", listener.boundPort(), 2'000, error);
    ASSERT_TRUE(client.valid()) << error;
    net::Socket server = listener.accept(2'000);
    ASSERT_TRUE(server.valid());

    // Mid-chain type switch: first fragment says snapshotRequest,
    // continuation claims sweepRequest — malformed.
    net::Frame head;
    head.type = net::MessageType::snapshotRequest;
    head.requestId = 5;
    head.partial = true;
    head.payload = {1, 2, 3};
    ASSERT_EQ(net::sendFrame(client, head, 2'000),
              net::FrameStatus::ok);
    net::Frame rogue;
    rogue.type = net::MessageType::sweepRequest;
    rogue.requestId = 5;
    rogue.payload = {4, 5, 6};
    ASSERT_EQ(net::sendFrame(client, rogue, 2'000),
              net::FrameStatus::ok);
    net::Frame out;
    EXPECT_EQ(net::recvMessage(server, out, 2'000, 2'000),
              net::FrameStatus::malformed);

    // Mid-chain requestId switch on a fresh connection.
    net::Socket client2 = net::connectTo(
        "127.0.0.1", listener.boundPort(), 2'000, error);
    ASSERT_TRUE(client2.valid()) << error;
    net::Socket server2 = listener.accept(2'000);
    ASSERT_TRUE(server2.valid());
    ASSERT_EQ(net::sendFrame(client2, head, 2'000),
              net::FrameStatus::ok);
    net::Frame other = head;
    other.requestId = 6;
    other.partial = false;
    ASSERT_EQ(net::sendFrame(client2, other, 2'000),
              net::FrameStatus::ok);
    EXPECT_EQ(net::recvMessage(server2, out, 2'000, 2'000),
              net::FrameStatus::malformed);

    // Chain cut by connection close — truncated, not a hang.
    net::Socket client3 = net::connectTo(
        "127.0.0.1", listener.boundPort(), 2'000, error);
    ASSERT_TRUE(client3.valid()) << error;
    net::Socket server3 = listener.accept(2'000);
    ASSERT_TRUE(server3.valid());
    ASSERT_EQ(net::sendFrame(client3, head, 2'000),
              net::FrameStatus::ok);
    client3.close();
    EXPECT_EQ(net::recvMessage(server3, out, 2'000, 2'000),
              net::FrameStatus::truncated);
}

TEST(FrameMessage, RejectsEmptyPartialFragments)
{
    net::Listener listener;
    std::string error;
    ASSERT_TRUE(listener.open("127.0.0.1", 0, error)) << error;
    net::Socket client = net::connectTo(
        "127.0.0.1", listener.boundPort(), 2'000, error);
    ASSERT_TRUE(client.valid()) << error;
    net::Socket server = listener.accept(2'000);
    ASSERT_TRUE(server.valid());

    // An empty head fragment claiming a continuation — the opener of
    // the endless empty-partial chain that would otherwise pin the
    // receiving thread forever (each empty fragment adds zero bytes,
    // so the reassembly budget alone never trips).
    net::Frame empty;
    empty.type = net::MessageType::snapshotRequest;
    empty.requestId = 9;
    empty.partial = true;
    ASSERT_EQ(net::sendFrame(client, empty, 2'000),
              net::FrameStatus::ok);
    net::Frame out;
    EXPECT_EQ(net::recvMessage(server, out, 2'000, 2'000),
              net::FrameStatus::malformed);

    // Same mid-chain: a non-empty head, then an empty non-final
    // continuation.
    net::Socket client2 = net::connectTo(
        "127.0.0.1", listener.boundPort(), 2'000, error);
    ASSERT_TRUE(client2.valid()) << error;
    net::Socket server2 = listener.accept(2'000);
    ASSERT_TRUE(server2.valid());
    net::Frame head = empty;
    head.payload = {1, 2, 3};
    ASSERT_EQ(net::sendFrame(client2, head, 2'000),
              net::FrameStatus::ok);
    ASSERT_EQ(net::sendFrame(client2, empty, 2'000),
              net::FrameStatus::ok);
    EXPECT_EQ(net::recvMessage(server2, out, 2'000, 2'000),
              net::FrameStatus::malformed);

    // An empty *message* (single non-partial frame, goodbye-style)
    // still passes: only non-final fragments must carry payload.
    net::Frame bare;
    bare.type = net::MessageType::goodbye;
    bare.requestId = 10;
    ASSERT_EQ(net::sendFrame(client, bare, 2'000),
              net::FrameStatus::ok);
    ASSERT_EQ(net::recvMessage(server, out, 2'000, 2'000),
              net::FrameStatus::ok);
    EXPECT_EQ(out.type, net::MessageType::goodbye);
    EXPECT_TRUE(out.payload.empty());
}

/** Raw-socket handshake against a daemon (hostile-input idiom). */
net::Socket
rawHandshake(std::uint16_t port)
{
    std::string error;
    net::Socket sock = net::connectTo("127.0.0.1", port, 2'000, error);
    EXPECT_TRUE(sock.valid()) << error;
    if (!sock.valid())
        return sock;
    net::Frame hello;
    hello.type = net::MessageType::hello;
    net::WireWriter hw;
    hw.u32(net::kWireVersion);
    hw.u32(kSweepCacheSchema);
    hw.u32(8);
    hello.payload = hw.take();
    EXPECT_EQ(net::sendFrame(sock, hello, 2'000), net::FrameStatus::ok);
    net::Frame ack;
    EXPECT_EQ(net::recvFrame(sock, ack, 2'000, 2'000),
              net::FrameStatus::ok);
    EXPECT_EQ(ack.type, net::MessageType::helloAck);
    return sock;
}

/** Send one slice payload (a snapshotRequest unless @p type says
 *  otherwise), expect a kErrBadRequest reply. */
void
expectSliceRejected(
    net::Socket &sock, const std::vector<std::uint8_t> &payload,
    std::uint64_t request_id,
    net::MessageType type = net::MessageType::snapshotRequest)
{
    net::Frame bad;
    bad.type = type;
    bad.requestId = request_id;
    bad.payload = payload;
    ASSERT_EQ(net::sendMessage(sock, bad, 2'000), net::FrameStatus::ok);
    net::Frame reply;
    ASSERT_EQ(net::recvMessage(sock, reply, 10'000, 2'000),
              net::FrameStatus::ok);
    ASSERT_EQ(reply.type, net::MessageType::error);
    EXPECT_EQ(reply.requestId, request_id);
    std::uint32_t code = 0;
    std::string message;
    ASSERT_TRUE(net::parseErrorFrame(reply, code, message));
    EXPECT_EQ(code, net::kErrBadRequest);
    // The batch's telemetry epoch still follows.
    ASSERT_EQ(net::recvMessage(sock, reply, 10'000, 2'000),
              net::FrameStatus::ok);
    EXPECT_EQ(reply.type, net::MessageType::metricsEpoch);
}

TEST(Sharding, HostileSliceRequestsGetTypedErrorsAndDaemonSurvives)
{
    WithDaemon daemon;
    net::Socket sock = rawHandshake(daemon.port());
    ASSERT_TRUE(sock.valid());

    // Garbage payload.
    expectSliceRejected(sock, {0xde, 0xad, 0xbe, 0xef}, 60);

    // Well-formed request whose key does not match its inputs.
    ShardSliceRequest forged = sampleSliceRequest();
    forged.key ^= 0x1;
    expectSliceRejected(sock, encodeShardSliceRequestPayload(forged),
                        61);

    // Slice that claims to start at/past the whole-run guard.
    ShardSliceRequest spent = sampleSliceRequest();
    spent.hasSnapshot = true;
    spent.snapshot = capturedSnapshot(spent);
    spent.runMaxCycles =
        spent.snapshot.cycle() - spent.snapshot.runStart;
    spent.key = checkpointKey(spent.config, 1, spent.workload);
    expectSliceRejected(sock, encodeShardSliceRequestPayload(spent),
                        62);

    // Slice demanding a cycle budget past kMaxSliceCycles (the slice
    // runs synchronously in the frame handler; the cap bounds what
    // one frame can make the daemon compute).
    ShardSliceRequest greedy = sampleSliceRequest();
    greedy.sliceCycles = kMaxSliceCycles + 1;
    expectSliceRejected(sock, encodeShardSliceRequestPayload(greedy),
                        63);

    // Trace slices whose snapshot is no reachable replay state. Each
    // used to abort the daemon inside its frame handler.
    std::uint64_t request_id = 64;
    ShardSliceRequest inconsistent = sampleTraceSliceRequest();
    inconsistent.hasSnapshot = true;
    for (const Snapshot &snap : inconsistentTraceSnapshots(inconsistent)) {
        inconsistent.snapshot = snap;
        expectSliceRejected(
            sock, encodeShardSliceRequestPayload(inconsistent),
            request_id++);
    }

    // A trace slice whose in-flight packet is addressed outside the
    // torus. The encoder refuses to write one, so the test patches
    // the dst of the packet's encoded bytes.
    ShardSliceRequest off_torus = sampleTraceSliceRequest();
    off_torus.hasSnapshot = true;
    off_torus.snapshot = capturedSnapshot(off_torus);
    ASSERT_FALSE(off_torus.snapshot.engine.slabPackets.empty());
    std::vector<std::uint8_t> payload =
        encodeShardSliceRequestPayload(off_torus);
    net::WireWriter packet_bytes;
    put(packet_bytes, off_torus.snapshot.engine.slabPackets[0]);
    const std::vector<std::uint8_t> packet = packet_bytes.take();
    const auto at = std::search(payload.begin(), payload.end(),
                                packet.begin(), packet.end());
    ASSERT_NE(at, payload.end());
    // dst is the little-endian u32 after the u64 id and the u32 src.
    const std::uint32_t outside = off_torus.config.pes();
    for (int i = 0; i < 4; ++i)
        at[12 + i] = static_cast<std::uint8_t>(outside >> (8 * i));
    expectSliceRejected(sock, payload, request_id++);

    // The same session then serves a valid first slice.
    ShardSliceRequest good = sampleSliceRequest();
    net::Frame frame;
    frame.type = net::MessageType::snapshotRequest;
    frame.requestId = request_id;
    frame.payload = encodeShardSliceRequestPayload(good);
    ASSERT_EQ(net::sendMessage(sock, frame, 2'000),
              net::FrameStatus::ok);
    net::Frame reply;
    ASSERT_EQ(net::recvMessage(sock, reply, 60'000, 10'000),
              net::FrameStatus::ok);
    ASSERT_EQ(reply.type, net::MessageType::snapshotResult);
    EXPECT_EQ(reply.requestId, request_id);
    ShardSliceResult result;
    ASSERT_TRUE(decodeShardSliceResultPayload(reply.payload, result));
    EXPECT_FALSE(result.done); // 64 cycles cannot drain the workload
    ASSERT_TRUE(result.hasSnapshot);
    EXPECT_TRUE(result.snapshot.engine.trimmed);
    EXPECT_GT(result.snapshot.cycle() - result.snapshot.runStart, 0u);

    net::Frame goodbye;
    goodbye.type = net::MessageType::goodbye;
    (void)net::recvMessage(sock, reply, 10'000, 2'000); // epoch
    ASSERT_EQ(net::sendFrame(sock, goodbye, 2'000),
              net::FrameStatus::ok);
    sock.close();

    daemon.server.stop();
    EXPECT_EQ(daemon.server.stats().badRequests, 7u);
    EXPECT_EQ(daemon.server.stats().slicesServed, 1u);
    EXPECT_EQ(daemon.server.netStats().protocolErrors, 0u);
}

/** Send one slice message and return its snapshotResult payload; the
 *  batch's telemetry epoch is read past. */
std::vector<std::uint8_t>
expectSliceServed(net::Socket &sock, net::MessageType type,
                  const std::vector<std::uint8_t> &payload,
                  std::uint64_t request_id)
{
    net::Frame frame;
    frame.type = type;
    frame.requestId = request_id;
    frame.payload = payload;
    EXPECT_EQ(net::sendMessage(sock, frame, 2'000), net::FrameStatus::ok);
    net::Frame reply;
    EXPECT_EQ(net::recvMessage(sock, reply, 60'000, 10'000),
              net::FrameStatus::ok);
    EXPECT_EQ(reply.type, net::MessageType::snapshotResult);
    EXPECT_EQ(reply.requestId, request_id);
    net::Frame epoch;
    EXPECT_EQ(net::recvMessage(sock, epoch, 10'000, 2'000),
              net::FrameStatus::ok);
    EXPECT_EQ(epoch.type, net::MessageType::metricsEpoch);
    return reply.payload;
}

TEST(Sharding, ContinuationsAreCheckedAgainstTheirSession)
{
    WithDaemon daemon;
    net::Socket sock = rawHandshake(daemon.port());
    ASSERT_TRUE(sock.valid());
    const ShardSliceRequest first = sampleTraceSliceRequest();
    const auto continuation = [](std::uint64_t key, const Snapshot &snap) {
        return encodeShardSliceContinuationPayload({key, snap});
    };

    // A continuation before the session holds any run's inputs.
    expectSliceRejected(sock,
                        continuation(first.key, capturedSnapshot(first)),
                        80, net::MessageType::sliceContinuation);

    // The first slice, with the run's inputs.
    ShardSliceResult result;
    ASSERT_TRUE(decodeShardSliceResultPayload(
        expectSliceServed(sock, net::MessageType::snapshotRequest,
                          encodeShardSliceRequestPayload(first), 81),
        result));
    ASSERT_FALSE(result.done);
    ASSERT_TRUE(result.hasSnapshot);

    // A key that is not the session's.
    expectSliceRejected(sock, continuation(first.key ^ 0x1, result.snapshot),
                        82, net::MessageType::sliceContinuation);

    // A snapshot cut short by one byte, its length prefix kept honest.
    std::vector<std::uint8_t> snap_bytes = encodeSnapshot(result.snapshot);
    snap_bytes.pop_back();
    net::WireWriter cut;
    cut.u64(first.key);
    cut.u64(snap_bytes.size());
    cut.bytes(snap_bytes.data(), snap_bytes.size());
    expectSliceRejected(sock, cut.take(), 83,
                        net::MessageType::sliceContinuation);

    // Snapshots that decode and pass every range check, yet describe
    // no state this run can reach.
    std::uint64_t request_id = 84;
    for (const Snapshot &snap : inconsistentTraceSnapshots(first))
        expectSliceRejected(sock, continuation(first.key, snap),
                            request_id++,
                            net::MessageType::sliceContinuation);

    // A valid continuation: the session's inputs and budgets with the
    // snapshot it carries, byte for byte what runSlice makes of them.
    ShardSliceRequest local = first;
    local.hasSnapshot = true;
    local.snapshot = result.snapshot;
    ShardSliceResult expected;
    ASSERT_EQ(runSlice(local, expected), SliceStatus::ok);
    EXPECT_EQ(expectSliceServed(sock, net::MessageType::sliceContinuation,
                                continuation(first.key, result.snapshot),
                                request_id),
              encodeShardSliceResultPayload(expected));

    net::Frame goodbye;
    goodbye.type = net::MessageType::goodbye;
    ASSERT_EQ(net::sendFrame(sock, goodbye, 2'000), net::FrameStatus::ok);
    sock.close();

    daemon.server.stop();
    EXPECT_EQ(daemon.server.stats().badRequests, 5u);
    EXPECT_EQ(daemon.server.stats().slicesServed, 2u);
    EXPECT_EQ(daemon.server.netStats().sessionsAccepted, 1u);
    EXPECT_EQ(daemon.server.netStats().protocolErrors, 0u);
}

TEST(Sharding, ShardedSyntheticRunMatchesLocalBitForBit)
{
    const NocConfig cfg = NocConfig::fastTrack(4, 2, 1);
    const SyntheticWorkload w = shardWorkload();
    const RunResult whole = runSim({.config = &cfg, .workload = &w});
    ASSERT_TRUE(whole.synth.completed);
    ASSERT_GT(whole.synth.cycles, 16u);

    WithDaemon a, b;
    const Cycle shard = whole.synth.cycles / 4 + 1; // >= 4 slices
    RunResult sharded;
    {
        WithRemote wr(loopbackConfig({a.port(), b.port()}));
        RunRequest request;
        request.config = &cfg;
        request.workload = &w;
        sharded = runShardedSim(request, shard);
    }

    EXPECT_TRUE(sharded.synth.completed);
    EXPECT_EQ(sharded.synth.cycles, whole.synth.cycles);
    EXPECT_EQ(hashStats(sharded.synth.stats),
              hashStats(whole.synth.stats));

    // Every slice travelled the wire, spread over both daemons.
    const RemoteStats stats = remoteStats();
    EXPECT_GE(stats.slicesRemote, 3u);
    EXPECT_EQ(stats.slicesFallback, 0u);
    EXPECT_GT(a.server.stats().slicesServed, 0u);
    EXPECT_GT(b.server.stats().slicesServed, 0u);
    EXPECT_EQ(a.server.stats().slicesServed +
                  b.server.stats().slicesServed,
              stats.slicesRemote);
    // One session per daemon for the whole run.
    EXPECT_EQ(a.server.netStats().sessionsAccepted, 1u);
    EXPECT_EQ(b.server.netStats().sessionsAccepted, 1u);
}

TEST(Sharding, ShardedTraceRunMatchesLocalBitForBit)
{
    const NocConfig cfg = NocConfig::fastTrack(4, 2, 1);
    const Trace trace = shardTrace();
    const RunResult whole = runSim({.config = &cfg, .trace = &trace});
    ASSERT_TRUE(whole.trace.completed);

    WithDaemon daemon;
    const Cycle shard = whole.trace.completion / 4 + 1;
    RunResult sharded;
    {
        WithRemote wr(loopbackConfig({daemon.port()}));
        RunRequest request;
        request.config = &cfg;
        request.trace = &trace;
        sharded = runShardedSim(request, shard);
    }

    EXPECT_TRUE(sharded.trace.completed);
    EXPECT_TRUE(sharded.isTrace);
    EXPECT_EQ(sharded.trace.completion, whole.trace.completion);
    EXPECT_EQ(hashStats(sharded.trace.stats),
              hashStats(whole.trace.stats));
    EXPECT_GE(remoteStats().slicesRemote, 3u);
    EXPECT_EQ(remoteStats().slicesFallback, 0u);
    EXPECT_GE(daemon.server.stats().slicesServed, 3u);
    EXPECT_EQ(daemon.server.netStats().sessionsAccepted, 1u);
}

TEST(Sharding, DeadFleetDegradesToLocalCompletion)
{
    const NocConfig cfg = NocConfig::fastTrack(4, 2, 1);
    const SyntheticWorkload w = shardWorkload();
    const RunResult whole = runSim({.config = &cfg, .workload = &w});
    ASSERT_TRUE(whole.synth.completed);

    RemoteConfig remote = loopbackConfig({deadPort()});
    remote.maxAttempts = 2;
    remote.connectTimeoutMs = 200;
    const Cycle shard = whole.synth.cycles / 4 + 1;
    RunResult sharded;
    {
        WithRemote wr(std::move(remote));
        RunRequest request;
        request.config = &cfg;
        request.workload = &w;
        sharded = runShardedSim(request, shard);
    }

    // The run completes locally, bit-identically.
    EXPECT_TRUE(sharded.synth.completed);
    EXPECT_EQ(sharded.synth.cycles, whole.synth.cycles);
    EXPECT_EQ(hashStats(sharded.synth.stats),
              hashStats(whole.synth.stats));

    const RemoteStats stats = remoteStats();
    EXPECT_EQ(stats.slicesRemote, 0u);
    EXPECT_GE(stats.slicesFallback, 3u);
    // The fleet is declared dead after the first slice's budget, not
    // re-probed once per slice.
    EXPECT_LE(stats.connectFailures, 2u);
}

TEST(Sharding, HostileSnapshotAnswersFallBackToLocal)
{
    const NocConfig cfg = NocConfig::fastTrack(4, 2, 1);
    const SyntheticWorkload w = shardWorkload();
    const RunResult whole = runSim({.config = &cfg, .workload = &w});
    ASSERT_TRUE(whole.synth.completed);
    const Cycle shard = whole.synth.cycles / 4 + 1;

    // (a) A decodable, internally consistent snapshot for a
    // *different* geometry: it passes every cycle-range check and is
    // only caught by the client's restore probe. Before the probe it
    // was committed as the next slice's handoff, every daemon then
    // rejected the chain, and the local fallback aborted the process.
    ShardSliceRequest foreign = sampleSliceRequest();
    foreign.config = NocConfig::fastTrack(6, 2, 1);
    foreign.workload = w;
    foreign.sliceCycles = shard;
    foreign.key = checkpointKey(foreign.config, 1, foreign.workload);
    ShardSliceResult wrong_geometry;
    wrong_geometry.kind = SnapshotKind::synthetic;
    wrong_geometry.done = false;
    wrong_geometry.hasSnapshot = true;
    wrong_geometry.snapshot = capturedSnapshot(foreign);

    // (b) A snapshot whose runStart lies beyond its cycle: the
    // unsigned cycle() - runStart delta wraps huge, which used to
    // sail past the anti-spin progress check unchecked.
    ShardSliceRequest own = sampleSliceRequest();
    own.workload = w;
    own.sliceCycles = shard;
    own.key = checkpointKey(own.config, 1, own.workload);
    ShardSliceResult underflow;
    underflow.kind = SnapshotKind::synthetic;
    underflow.done = false;
    underflow.hasSnapshot = true;
    underflow.snapshot = capturedSnapshot(own);
    underflow.snapshot.runStart = underflow.snapshot.cycle() + 1;

    for (const ShardSliceResult *hostile :
         {&wrong_geometry, &underflow}) {
        HostileDaemon daemon(encodeShardSliceResultPayload(*hostile));
        RemoteConfig remote = loopbackConfig({daemon.port()});
        remote.maxAttempts = 2;
        RunResult sharded;
        {
            WithRemote wr(std::move(remote));
            RunRequest request;
            request.config = &cfg;
            request.workload = &w;
            sharded = runShardedSim(request, shard);
        }
        // No crash, no infinite slice loop, no poisoned chain: the
        // hostile answers are rejected on receipt and the run
        // completes locally, bit-identical.
        EXPECT_TRUE(sharded.synth.completed);
        EXPECT_EQ(sharded.synth.cycles, whole.synth.cycles);
        EXPECT_EQ(hashStats(sharded.synth.stats),
                  hashStats(whole.synth.stats));
        EXPECT_EQ(remoteStats().slicesRemote, 0u);
        EXPECT_GE(remoteStats().slicesFallback, 3u);
    }
}

TEST(Sharding, HostileTraceSnapshotAnswersFallBackToLocal)
{
    const NocConfig cfg = NocConfig::fastTrack(4, 2, 1);
    const Trace trace = shardTrace();
    const RunResult whole = runSim({.config = &cfg, .trace = &trace});
    ASSERT_TRUE(whole.trace.completed);
    const Cycle shard = whole.trace.completion / 4 + 1;

    // Snapshots of this very run, advanced by exactly one slice: only
    // the client's restore probe can tell them from honest answers.
    ShardSliceRequest own = sampleTraceSliceRequest();
    own.sliceCycles = shard;
    for (const Snapshot &snap : inconsistentTraceSnapshots(own)) {
        ShardSliceResult hostile;
        hostile.kind = SnapshotKind::trace;
        hostile.done = false;
        hostile.hasSnapshot = true;
        hostile.snapshot = snap;
        HostileDaemon daemon(encodeShardSliceResultPayload(hostile));
        RemoteConfig remote = loopbackConfig({daemon.port()});
        remote.maxAttempts = 2;
        RunResult sharded;
        {
            WithRemote wr(std::move(remote));
            RunRequest request;
            request.config = &cfg;
            request.trace = &trace;
            sharded = runShardedSim(request, shard);
        }
        EXPECT_TRUE(sharded.trace.completed);
        EXPECT_EQ(sharded.trace.completion, whole.trace.completion);
        EXPECT_EQ(hashStats(sharded.trace.stats),
                  hashStats(whole.trace.stats));
        EXPECT_EQ(remoteStats().slicesRemote, 0u);
        EXPECT_GE(remoteStats().slicesFallback, 3u);
    }
}

TEST(Sharding, MidRunDaemonLossFallsBackAndStaysCorrect)
{
    const NocConfig cfg = NocConfig::fastTrack(4, 2, 1);
    const SyntheticWorkload w = shardWorkload();
    const RunResult whole = runSim({.config = &cfg, .workload = &w});
    ASSERT_TRUE(whole.synth.completed);

    // One live daemon, one dead endpoint: round-robin lands slices on
    // both, so the driver exercises retry-and-rotate mid-run. Every
    // slice is still served (by the live daemon) or — once the retry
    // budget trips on a dead pick without rotation luck — locally.
    RemoteConfig remote;
    WithDaemon daemon;
    remote = loopbackConfig({daemon.port(), deadPort()});
    remote.maxAttempts = 3;
    remote.connectTimeoutMs = 200;
    const Cycle shard = whole.synth.cycles / 4 + 1;
    RunResult sharded;
    {
        WithRemote wr(std::move(remote));
        RunRequest request;
        request.config = &cfg;
        request.workload = &w;
        sharded = runShardedSim(request, shard);
    }

    EXPECT_TRUE(sharded.synth.completed);
    EXPECT_EQ(sharded.synth.cycles, whole.synth.cycles);
    EXPECT_EQ(hashStats(sharded.synth.stats),
              hashStats(whole.synth.stats));
    const RemoteStats stats = remoteStats();
    EXPECT_GE(stats.slicesRemote + stats.slicesFallback, 3u);
    EXPECT_GE(stats.slicesRemote, 1u);
    EXPECT_GE(stats.connectFailures, 1u);
}

TEST(Sharding, CutSessionsReconnectWithTheInputsAndStayCorrect)
{
    const NocConfig cfg = NocConfig::fastTrack(4, 2, 1);
    const Trace trace = shardTrace();
    const RunResult whole = runSim({.config = &cfg, .trace = &trace});
    ASSERT_TRUE(whole.trace.completed);

    // The daemon cuts each session after its third response frame:
    // right after the answer to the session's second slice.
    net::ServerConfig config;
    config.dropAfterFrames = 3;
    WithDaemon daemon(config);
    const Cycle shard = whole.trace.completion / 8 + 1; // >= 8 slices
    RunResult sharded;
    {
        WithRemote wr(loopbackConfig({daemon.port()}));
        RunRequest request;
        request.config = &cfg;
        request.trace = &trace;
        sharded = runShardedSim(request, shard);
    }

    EXPECT_TRUE(sharded.trace.completed);
    EXPECT_EQ(sharded.trace.completion, whole.trace.completion);
    EXPECT_EQ(hashStats(sharded.trace.stats),
              hashStats(whole.trace.stats));
    const RemoteStats stats = remoteStats();
    EXPECT_GE(stats.slicesRemote, 8u);
    EXPECT_EQ(stats.slicesFallback, 0u);
    // A cut session is never reused, and each new one opens with the
    // run's inputs: a continuation on a fresh session would have been
    // refused.
    EXPECT_EQ(stats.errorFrames, 0u);
    EXPECT_EQ(daemon.server.stats().badRequests, 0u);
    EXPECT_EQ(daemon.server.stats().slicesServed, stats.slicesRemote);
    EXPECT_EQ(daemon.server.netStats().sessionsAccepted,
              (stats.slicesRemote + 1) / 2);
    EXPECT_EQ(daemon.server.netStats().protocolErrors, 0u);
}

} // namespace
} // namespace fasttrack
