/**
 * @file
 * Byte pins of every run-input key and wire payload: the sweep-cache
 * and checkpoint content keys and the sweepRequest / snapshotRequest
 * payloads an older daemon or an existing disk store still reads.
 *
 * A round-trip test cannot catch a reordered field, because the
 * encoder and the decoder move together; these literals do. Every
 * field of NocConfig and SyntheticWorkload carries a non-default
 * value so that a dropped or swapped field moves at least one pin.
 * If a pin changes on purpose, bump kSweepCacheSchema,
 * kCheckpointSchema or kWireVersion with it.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "common/fnv1a.hpp"
#include "net/frame.hpp"
#include "run_input_variants.hpp"
#include "sim/checkpoint.hpp"
#include "sim/remote.hpp"
#include "sim/sweep_cache.hpp"

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
    EXPECT_EQ(kCheckpointSchema, 1u);
    EXPECT_EQ(net::kWireVersion, 2u);

    EXPECT_EQ(sweepKey(cfg, 3, wl, 123'456),
              UINT64_C(0x2c9f83c5beafb5ba));
    EXPECT_EQ(checkpointKey(cfg, 3, wl),
              UINT64_C(0x793d2b7cbc5098c7));
    EXPECT_EQ(checkpointKey(cfg, 3, trace),
              UINT64_C(0xd92d8e8b5f7d1025));

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
              UINT64_C(0xe3b054961e120ec8));

    slice.kind = SnapshotKind::trace;
    slice.workload = SyntheticWorkload{};
    slice.trace = trace;
    slice.key = checkpointKey(cfg, 1, trace);
    EXPECT_EQ(fnv(encodeShardSliceRequestPayload(slice)),
              UINT64_C(0x361c943d0e0d78a1));
}

} // namespace
} // namespace fasttrack
