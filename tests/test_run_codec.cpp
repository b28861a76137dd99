/**
 * @file
 * Byte pins of every key and payload the simulator stores or sends:
 * the sweep-cache and checkpoint content keys, the sweepRequest /
 * snapshotRequest payloads, and the state and result payloads (the
 * SynthResult codec, snapshots, slice results, a slice continuation,
 * the sweepResult and metricsEpoch envelopes, a frame, and both keyed
 * files) that an older daemon or an existing disk store still reads.
 *
 * A round-trip test cannot catch a reordered field, because the
 * encoder and the decoder move together; these literals do. Every
 * field of NocConfig and SyntheticWorkload carries a non-default
 * value so that a dropped or swapped field moves at least one pin,
 * and the captured states hold offers, in-flight packets, backlogs
 * and a ready list. If a pin changes on purpose, bump
 * kSweepCacheSchema, kCheckpointSchema or kWireVersion with it.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "common/fnv1a.hpp"
#include "net/frame.hpp"
#include "run_input_variants.hpp"
#include "sched/blob_cache.hpp"
#include "scratch_dir.hpp"
#include "sim/checkpoint.hpp"
#include "sim/remote.hpp"
#include "sim/sweep_cache.hpp"
#include "workloads/dataflow.hpp"

namespace fasttrack {
namespace {

NocConfig
pinConfig()
{
    NocConfig c = NocConfig::fastTrack(8, 2, 2, NocVariant::ftInject);
    c.allowExpressTurn = false;
    c.allowUpgrade = false;
    c.turnPriority = false;
    c.shortLinkStages = 1;
    c.expressLinkStages = 2;
    return c;
}

SyntheticWorkload
pinWorkload()
{
    SyntheticWorkload w;
    w.pattern = TrafficPattern::local;
    w.injectionRate = 0.375; // exact in binary
    w.packetsPerPe = 96;
    w.localRadius = 3;
    w.seed = 0x5eed;
    return w;
}

std::uint64_t
fnv(const std::vector<std::uint8_t> &bytes)
{
    Fnv1a h;
    h.addBytes(bytes.data(), bytes.size());
    return h.value();
}

TEST(RunCodec, KeysAndWireBytesArePinned)
{
    const NocConfig cfg = pinConfig();
    const SyntheticWorkload wl = pinWorkload();
    const Trace trace = pinTrace();

    EXPECT_EQ(kSweepCacheSchema, 2u);
    EXPECT_EQ(kCheckpointSchema, 2u);
    EXPECT_EQ(net::kWireVersion, 3u);

    EXPECT_EQ(sweepKey(cfg, 3, wl, 123'456),
              UINT64_C(0x2c9f83c5beafb5ba));
    EXPECT_EQ(checkpointKey(cfg, 3, wl),
              UINT64_C(0xf447b3e1cc2a75e4));
    EXPECT_EQ(checkpointKey(cfg, 3, trace),
              UINT64_C(0xc6c87deaa896df86));

    SweepRequest sweep;
    sweep.pointIndex = 7;
    sweep.config = cfg;
    sweep.channels = 2;
    sweep.workload = wl;
    sweep.maxCycles = 123'456;
    EXPECT_EQ(fnv(encodeSweepRequestPayload(sweep)),
              UINT64_C(0x18294b68e191f20e));

    ShardSliceRequest slice;
    slice.kind = SnapshotKind::synthetic;
    slice.config = cfg;
    slice.workload = wl;
    slice.sliceCycles = 5'000;
    slice.runMaxCycles = 200'000;
    slice.key = checkpointKey(cfg, 1, wl);
    EXPECT_EQ(fnv(encodeShardSliceRequestPayload(slice)),
              UINT64_C(0x47f6ed2825128348));

    slice.kind = SnapshotKind::trace;
    slice.workload = SyntheticWorkload{};
    slice.trace = trace;
    slice.key = checkpointKey(cfg, 1, trace);
    EXPECT_EQ(fnv(encodeShardSliceRequestPayload(slice)),
              UINT64_C(0xab7427a8077d8ea1));
}

/** Which decoder reads a pinned payload back (none: pinned only). */
enum class Codec
{
    none,
    synthResult,
    snapshot,
    sliceRequest,
    sliceResult,
};

struct PinnedPayload
{
    std::string name;
    Codec codec = Codec::none;
    std::vector<std::uint8_t> bytes;
};

/** Heavy enough that a capture at cycle 24 holds offers, in-flight
 *  packets and source backlogs. */
SyntheticWorkload
stateWorkload()
{
    SyntheticWorkload w;
    w.pattern = TrafficPattern::random;
    w.injectionRate = 0.625;
    w.packetsPerPe = 40;
    w.seed = 0x51;
    return w;
}

Trace
stateTrace()
{
    return dataflowTrace(sparseLuDag({"pin_lu", 160, 6.0, 1.8, 3, 17}),
                         4);
}

Snapshot
capture(const NocConfig &cfg, const SyntheticWorkload *workload,
        const Trace *trace, Cycle cycles)
{
    Snapshot snap;
    EXPECT_TRUE(runSim({.config = &cfg,
                        .workload = workload,
                        .trace = trace,
                        .sim = {.maxCycles = cycles,
                                .captureFinal = &snap}})
                    .finalCaptured);
    EXPECT_FALSE(snap.engine.slabPackets.empty());
    return snap;
}

/** A first slice of @p request, then the rest of the run resumed from
 *  its snapshot: the second request and both answers. */
void
addSlices(std::vector<PinnedPayload> &out, const std::string &kind,
          ShardSliceRequest request)
{
    ShardSliceResult mid;
    EXPECT_EQ(runSlice(request, mid), SliceStatus::ok);
    EXPECT_FALSE(mid.done);
    request.hasSnapshot = true;
    request.snapshot = mid.snapshot;
    request.sliceCycles = kMaxSliceCycles;
    ShardSliceResult last;
    EXPECT_EQ(runSlice(request, last), SliceStatus::ok);
    EXPECT_TRUE(last.done);
    out.push_back({kind + " slice request with snapshot",
                   Codec::sliceRequest,
                   encodeShardSliceRequestPayload(request)});
    out.push_back({kind + " mid-run slice result", Codec::sliceResult,
                   encodeShardSliceResultPayload(mid)});
    out.push_back({kind + " final slice result", Codec::sliceResult,
                   encodeShardSliceResultPayload(last)});
}

/** Every state and result payload the pins below fix, in one order. */
std::vector<PinnedPayload>
statePayloads()
{
    std::vector<PinnedPayload> out;
    const NocConfig full = NocConfig::fastTrack(4, 2, 1);
    const NocConfig lite =
        NocConfig::fastTrack(4, 2, 1, NocVariant::ftInject);
    const SyntheticWorkload w = stateWorkload();
    const Trace trace = stateTrace();

    const SynthResult synth = runSim({.config = &full, .workload = &w}).synth;
    EXPECT_TRUE(synth.completed);
    const std::vector<std::uint8_t> result = encodeSynthResult(synth);
    out.push_back({"SynthResult", Codec::synthResult, result});

    for (const auto &[name, cfg] :
         {std::pair{"FT-Full", full}, std::pair{"FTlite", lite}}) {
        Snapshot snap = capture(cfg, &w, nullptr, 24);
        EXPECT_FALSE(snap.engine.offers.empty());
        EXPECT_TRUE(std::any_of(snap.injector.queues.begin(),
                                snap.injector.queues.end(),
                                [](const auto &q) { return !q.empty(); }));
        out.push_back({std::string(name) + " snapshot", Codec::snapshot,
                       encodeSnapshot(snap)});
        snap.trimState();
        out.push_back({std::string(name) + " trimmed snapshot",
                       Codec::snapshot, encodeSnapshot(snap)});
    }
    const Snapshot traced = capture(full, nullptr, &trace, 40);
    EXPECT_FALSE(traced.replay.ready.empty());
    EXPECT_TRUE(std::any_of(traced.replay.sourceQueues.begin(),
                            traced.replay.sourceQueues.end(),
                            [](const auto &q) { return !q.empty(); }));
    out.push_back({"trace snapshot", Codec::snapshot,
                   encodeSnapshot(traced)});

    ShardSliceRequest slice;
    slice.config = full;
    slice.sliceCycles = 24;
    slice.runMaxCycles = 100'000;
    slice.kind = SnapshotKind::synthetic;
    slice.workload = w;
    slice.key = checkpointKey(full, 1, w);
    addSlices(out, "synthetic", slice);
    slice.kind = SnapshotKind::trace;
    slice.workload = SyntheticWorkload{};
    slice.trace = trace;
    slice.key = checkpointKey(full, 1, trace);
    addSlices(out, "trace", slice);
    Snapshot handoff = traced;
    handoff.trimState();
    out.push_back({"trace slice continuation", Codec::none,
                   encodeShardSliceContinuationPayload(
                       {slice.key, std::move(handoff)})});

    out.push_back({"sweepResult", Codec::none,
                   encodeSweepResultPayload(9, true, result)});
    out.push_back({"metricsEpoch", Codec::none,
                   encodeMetricsPayload({{"ftd.points_served", 12.0},
                                         {"sched.pool.steals", 0.25},
                                         {"sweep_cache.hits", 3.0}})});
    net::Frame frame;
    frame.type = net::MessageType::snapshotResult;
    frame.requestId = 0x1234;
    frame.partial = true;
    frame.payload = result;
    out.push_back({"frame", Codec::none, net::encodeFrame(frame)});

    const ScratchDir dir("run_codec_files");
    sched::BlobCache cache("pin_cache", kSweepCacheSchema);
    cache.setDir(dir.path());
    const std::uint64_t key = sweepKey(full, 1, w, 100'000);
    cache.store(key, result);
    out.push_back({"FTRC cache file", Codec::none,
                   readAllBytes(cache.entryPath(key))});
    std::string path;
    writeSnapshotFile(dir.path(), checkpointKey(full, 1, trace), traced,
                      &path);
    EXPECT_FALSE(path.empty());
    out.push_back({"FTCP snapshot file", Codec::none, readAllBytes(path)});
    return out;
}

TEST(RunCodec, StateAndResultBytesArePinned)
{
    const std::vector<std::pair<std::string, std::uint64_t>> pins = {
        {"SynthResult", UINT64_C(0x9b75f726bfef7ebc)},
        {"FT-Full snapshot", UINT64_C(0xcca3e6ed4948c63a)},
        {"FT-Full trimmed snapshot", UINT64_C(0x8b685e97c222d273)},
        {"FTlite snapshot", UINT64_C(0x367bd13dab5a40a8)},
        {"FTlite trimmed snapshot", UINT64_C(0xf2aa98c0c3c0b27c)},
        {"trace snapshot", UINT64_C(0x1ec4b0216d0f0549)},
        {"synthetic slice request with snapshot",
         UINT64_C(0xabff469523dba393)},
        {"synthetic mid-run slice result", UINT64_C(0x9aa23863d12d883a)},
        {"synthetic final slice result", UINT64_C(0xa733372eec0d8afd)},
        {"trace slice request with snapshot", UINT64_C(0x231aa30a05b7b0da)},
        {"trace mid-run slice result", UINT64_C(0xbb527c90fdfc20fb)},
        {"trace final slice result", UINT64_C(0x70aecf5f91ba246a)},
        {"trace slice continuation", UINT64_C(0xbdf7082d81232d06)},
        {"sweepResult", UINT64_C(0xbb6f65614b0c182f)},
        {"metricsEpoch", UINT64_C(0xfe4b7204ddc82c24)},
        {"frame", UINT64_C(0xfdc1dafef7479514)},
        {"FTRC cache file", UINT64_C(0xd5780cf79dcb977d)},
        {"FTCP snapshot file", UINT64_C(0x181bda8e16ba8e6f)},
    };
    const std::vector<PinnedPayload> payloads = statePayloads();
    ASSERT_EQ(payloads.size(), pins.size());
    for (std::size_t i = 0; i < pins.size(); ++i) {
        EXPECT_EQ(payloads[i].name, pins[i].first);
        EXPECT_EQ(fnv(payloads[i].bytes), pins[i].second)
            << payloads[i].name << " is " << payloads[i].bytes.size()
            << " bytes";
    }
}

TEST(RunCodec, DecodedPayloadsEncodeToTheSameBytes)
{
    for (const PinnedPayload &p : statePayloads()) {
        std::vector<std::uint8_t> again;
        switch (p.codec) {
        case Codec::none:
            continue;
        case Codec::synthResult: {
            SynthResult result;
            ASSERT_TRUE(decodeSynthResult(p.bytes, result)) << p.name;
            again = encodeSynthResult(result);
            break;
        }
        case Codec::snapshot: {
            Snapshot snap;
            ASSERT_TRUE(decodeSnapshot(p.bytes, snap)) << p.name;
            again = encodeSnapshot(snap);
            break;
        }
        case Codec::sliceRequest: {
            ShardSliceRequest request;
            ASSERT_TRUE(decodeShardSliceRequestPayload(p.bytes, request))
                << p.name;
            again = encodeShardSliceRequestPayload(request);
            break;
        }
        case Codec::sliceResult: {
            ShardSliceResult result;
            ASSERT_TRUE(decodeShardSliceResultPayload(p.bytes, result))
                << p.name;
            again = encodeShardSliceResultPayload(result);
            break;
        }
        }
        EXPECT_EQ(again, p.bytes) << p.name;
    }
}

} // namespace
} // namespace fasttrack
