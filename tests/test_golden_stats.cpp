/**
 * @file
 * Golden-stats equivalence pins for the cycle engine: fixed-seed runs
 * of the standard lineup (Hoplite, FT(64,2,1), FT(64,2,2) and
 * multi-channel Hoplite) and of Fig 1's buffered baselines (the
 * input-queued mesh and VC torus) must reproduce recorded NocStats
 * and latency histograms bit for bit. Any engine refactor that
 * changes routing decisions, arbitration order or measurement
 * bookkeeping trips these hashes; an intentional behavior change
 * must re-record them (run the suite and copy the "actual" values
 * printed by the failures) and justify the delta in the commit
 * message.
 *
 * The GoldenStats.Replay* pins do the same for trace replay: each
 * Fig 15 workload family on Hoplite and FT(64,2,1), one multi-channel
 * replay, and a hand-built trace whose ready set is out of id order,
 * down to the bytes of a mid-run snapshot. They pin the replayer's
 * ready order, per-source FIFO order and offer order together with
 * the engine.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <ostream>

#include "common/fnv1a.hpp"
#include "noc/input_queued.hpp"
#include "noc/multichannel.hpp"
#include "noc/network.hpp"
#include "sim/checkpoint.hpp"
#include "sim/simulation.hpp"
#include "traffic/injector.hpp"
#include "workloads/dataflow.hpp"
#include "workloads/graph_analytics.hpp"
#include "workloads/mp_overlay.hpp"
#include "workloads/spmv.hpp"

#include "golden_hash.hpp"

namespace fasttrack {
namespace {

/** Run the standard closed workload on @p noc and hash the result. */
std::uint64_t
runLineup(NocDevice &noc, TrafficPattern pattern, std::uint64_t seed,
          double rate = 0.35)
{
    SyntheticWorkload workload;
    workload.pattern = pattern;
    workload.injectionRate = rate;
    workload.packetsPerPe = 200;
    workload.seed = seed;
    SyntheticInjector injector(noc, workload);

    const Cycle limit = 400000;
    while (!injector.done() && noc.now() < limit) {
        injector.tick();
        noc.step();
    }
    EXPECT_TRUE(injector.done()) << "workload did not complete";
    return hashStats(noc.statsSnapshot());
}

TEST(GoldenStats, Hoplite8Random)
{
    Network noc(NocConfig::hoplite(8));
    EXPECT_EQ(runLineup(noc, TrafficPattern::random, 11),
              6920804258037780977ull);
}

TEST(GoldenStats, FastTrack8D2R1Random)
{
    Network noc(NocConfig::fastTrack(8, 2, 1));
    EXPECT_EQ(runLineup(noc, TrafficPattern::random, 12),
              13018505667610585120ull);
}

TEST(GoldenStats, FastTrack8D2R2Random)
{
    Network noc(NocConfig::fastTrack(8, 2, 2));
    EXPECT_EQ(runLineup(noc, TrafficPattern::random, 13),
              1807215248422678562ull);
}

TEST(GoldenStats, FastTrack8D2R1Transpose)
{
    Network noc(NocConfig::fastTrack(8, 2, 1));
    EXPECT_EQ(runLineup(noc, TrafficPattern::transpose, 14),
              15785417443856874428ull);
}

TEST(GoldenStats, MultiChannel8x2Random)
{
    MultiChannelNoc noc(NocConfig::hoplite(8), 2);
    EXPECT_EQ(runLineup(noc, TrafficPattern::random, 15),
              11140384843414844015ull);
}

TEST(GoldenStats, InjectVariant8D2R2Random)
{
    Network noc(
        NocConfig::fastTrack(8, 2, 2, NocVariant::ftInject));
    EXPECT_EQ(runLineup(noc, TrafficPattern::random, 16),
              17854748734557977273ull);
}

// One pin per routing knob and geometry fact the default lineup leaves
// at one value: each policy flag off, a D that does not divide N (so
// the wraparound breaks express alignment), an express link stage,
// and two FastTrack channels, whose exit gate refuses packets on
// express as well as short ports.

/** FT(64,2,1) with one knob changed by @p edit. */
template <typename Edit>
NocConfig
fastTrack8(Edit edit)
{
    NocConfig cfg = NocConfig::fastTrack(8, 2, 1);
    edit(cfg);
    return cfg;
}

TEST(GoldenStats, FastTrack8D2R1RingFirstRandom)
{
    Network noc(fastTrack8([](NocConfig &c) { c.turnPriority = false; }));
    EXPECT_EQ(runLineup(noc, TrafficPattern::random, 17),
              11907176022795404371ull);
}

TEST(GoldenStats, FastTrack8D2R1NoExpressTurnRandom)
{
    Network noc(
        fastTrack8([](NocConfig &c) { c.allowExpressTurn = false; }));
    EXPECT_EQ(runLineup(noc, TrafficPattern::random, 18),
              14994455828384339841ull);
}

TEST(GoldenStats, FastTrack8D2R1NoUpgradeRandom)
{
    Network noc(fastTrack8([](NocConfig &c) { c.allowUpgrade = false; }));
    EXPECT_EQ(runLineup(noc, TrafficPattern::random, 19),
              14183384076904996604ull);
}

TEST(GoldenStats, FastTrack8D3R1Random)
{
    Network noc(NocConfig::fastTrack(8, 3, 1));
    EXPECT_EQ(runLineup(noc, TrafficPattern::random, 20),
              1257370604728999348ull);
}

TEST(GoldenStats, FastTrack8D2R1ExpressStageRandom)
{
    Network noc(
        fastTrack8([](NocConfig &c) { c.expressLinkStages = 1; }));
    EXPECT_EQ(runLineup(noc, TrafficPattern::random, 21),
              9435952222270379557ull);
}

TEST(GoldenStats, MultiChannelFastTrack8D2R1x2Random)
{
    MultiChannelNoc noc(NocConfig::fastTrack(8, 2, 1), 2);
    EXPECT_EQ(runLineup(noc, TrafficPattern::random, 22),
              4884933777170956048ull);
}

// Fig 1's buffered baselines: the one-VC input-queued mesh and the
// dateline VC torus, each at the lineup's rate and once at rate 1.0
// with shallow FIFOs, which fill, so grants wait for credits.

TEST(GoldenStats, Mesh8Depth4Random)
{
    auto noc = InputQueuedNetwork::mesh(8, 4);
    EXPECT_EQ(runLineup(noc, TrafficPattern::random, 23),
              10188332126566015070ull);
}

TEST(GoldenStats, Torus8Vc2Depth4Random)
{
    auto noc = InputQueuedNetwork::torus(8, 2, 4);
    EXPECT_EQ(runLineup(noc, TrafficPattern::random, 24),
              4412830387438025633ull);
    EXPECT_EQ(noc.datelineCrossings(), 6105u);
}

TEST(GoldenStats, Mesh8Depth1TransposeSaturated)
{
    auto noc = InputQueuedNetwork::mesh(8, 1);
    EXPECT_EQ(runLineup(noc, TrafficPattern::transpose, 25, 1.0),
              9929848792807582861ull);
    EXPECT_EQ(noc.now(), 2808u);
}

TEST(GoldenStats, Torus8Vc4Depth2TransposeSaturated)
{
    auto noc = InputQueuedNetwork::torus(8, 4, 2);
    EXPECT_EQ(runLineup(noc, TrafficPattern::transpose, 26, 1.0),
              17154496173578651775ull);
    EXPECT_EQ(noc.now(), 857u);
    EXPECT_EQ(noc.datelineCrossings(), 5200u);
}

/** What a replay pin records: the stats hash and the makespan. */
struct ReplayPin
{
    std::uint64_t stats = 0;
    Cycle completion = 0;
    bool operator==(const ReplayPin &) const = default;
};

std::ostream &
operator<<(std::ostream &os, const ReplayPin &pin)
{
    return os << "{" << pin.stats << "ull, " << pin.completion << "}";
}

/** Replay @p trace to completion on @p noc. */
ReplayPin
replay(NocDevice &noc, const Trace &trace)
{
    const RunResult r = runSim({.device = &noc, .trace = &trace});
    EXPECT_TRUE(r.trace.completed);
    return {hashStats(r.trace.stats), r.trace.completion};
}

Trace
spmvGolden()
{
    MatrixParams params;
    params.rows = 3000;
    params.seed = 21;
    return spmvTrace(generateMatrix(params), 8);
}

Trace
luGolden()
{
    return dataflowTrace(
        sparseLuDag(LuDagParams{"golden_lu", 1500, 8.0, 1.8, 3, 22}), 8);
}

Trace
graphGolden()
{
    return graphPushTrace(rmat(9, 4096, 0.57, 0.19, 0.19, 23), 8,
                          VertexPartition::hashed, 2);
}

Trace
overlayGolden()
{
    return mpOverlayTrace(parsecCatalog()[1], 8, 32);
}

/**
 * A hand-built 4x4 trace the generators never emit: its
 * dependency-free messages come due in descending id order, mixed
 * with dependents. Triple k is a node-local message on node k, a
 * dependent of it on node 8 + k, and a free message on node 8 + k
 * that comes due in the very cycle the delivery releases the
 * dependent, so one source takes a released and a free message in
 * one tick. Even triples give the dependent the lower id, odd ones
 * the free message. Background traffic from nodes 8-15 (every third
 * message waiting on the two before it) keeps the network busy
 * without moving the triples' release cycles.
 */
Trace
shuffledGolden()
{
    Trace t;
    t.name = "shuffled";
    t.n = 4;
    for (std::uint64_t k = 0; k < 8; ++k) {
        const std::uint64_t local = 3 * k;
        const Cycle local_at = 3 * (7 - k) + 1;
        const auto node = static_cast<NodeId>(k);
        const auto src = static_cast<NodeId>(8 + k);
        const TraceMessage dependent{
            src, static_cast<NodeId>((src + 5) % 16), 0, 1};
        const TraceMessage free{src, static_cast<NodeId>((src + 3) % 16),
                                local_at + 2, 0};
        t.add({node, node, local_at, 0});
        if (k % 2 == 0) {
            t.add(dependent, {local});
            t.add(free);
        } else {
            t.add(free);
            t.add(dependent, {local});
        }
    }
    for (std::uint64_t i = 24; i < 48; ++i) {
        TraceMessage m;
        m.src = static_cast<NodeId>(8 + i % 8);
        m.dst = static_cast<NodeId>((i * 5 + 1) % 16);
        if (i % 3 == 0) {
            m.delayAfterDeps = i % 4;
            t.add(m, {i - 2, i - 1});
        } else {
            m.earliest = (47 - i) * 2 % 29;
            t.add(m);
        }
    }
    return t;
}

TEST(GoldenStats, ReplaySpmvHoplite)
{
    Network noc(NocConfig::hoplite(8));
    EXPECT_EQ(replay(noc, spmvGolden()), (ReplayPin{14671316313124900024ull, 816}));
}

TEST(GoldenStats, ReplaySpmvFastTrack8D2R1)
{
    Network noc(NocConfig::fastTrack(8, 2, 1));
    EXPECT_EQ(replay(noc, spmvGolden()), (ReplayPin{7262048139546791644ull, 324}));
}

TEST(GoldenStats, ReplayLuDataflowHoplite)
{
    Network noc(NocConfig::hoplite(8));
    EXPECT_EQ(replay(noc, luGolden()), (ReplayPin{15152568686505603163ull, 1895}));
}

TEST(GoldenStats, ReplayLuDataflowFastTrack8D2R1)
{
    Network noc(NocConfig::fastTrack(8, 2, 1));
    EXPECT_EQ(replay(noc, luGolden()), (ReplayPin{10137496518216038289ull, 1358}));
}

TEST(GoldenStats, ReplayGraphPushHoplite)
{
    Network noc(NocConfig::hoplite(8));
    EXPECT_EQ(replay(noc, graphGolden()), (ReplayPin{108768008989177843ull, 1576}));
}

TEST(GoldenStats, ReplayGraphPushFastTrack8D2R1)
{
    Network noc(NocConfig::fastTrack(8, 2, 1));
    EXPECT_EQ(replay(noc, graphGolden()), (ReplayPin{18091018289424143575ull, 1214}));
}

TEST(GoldenStats, ReplayMpOverlayHoplite)
{
    Network noc(NocConfig::hoplite(8));
    EXPECT_EQ(replay(noc, overlayGolden()), (ReplayPin{13625148525210378276ull, 21183}));
}

TEST(GoldenStats, ReplayMpOverlayFastTrack8D2R1)
{
    Network noc(NocConfig::fastTrack(8, 2, 1));
    EXPECT_EQ(replay(noc, overlayGolden()), (ReplayPin{13945775930559835399ull, 12497}));
}

TEST(GoldenStats, ReplayLuDataflowMultiChannel8x2)
{
    // No pending-offer mask: the replayer polls hasPendingOffer.
    MultiChannelNoc noc(NocConfig::hoplite(8), 2);
    EXPECT_EQ(replay(noc, luGolden()), (ReplayPin{1602958982364190692ull, 1822}));
}

TEST(GoldenStats, ReplayShuffledReadyOrder)
{
    Network noc(NocConfig::fastTrack(4, 2, 1));
    EXPECT_EQ(replay(noc, shuffledGolden()), (ReplayPin{8844672941243346739ull, 32}));
}

TEST(GoldenStats, ReplayShuffledMidRunSnapshotBytes)
{
    const Trace trace = shuffledGolden();
    const NocConfig config = NocConfig::fastTrack(4, 2, 1);
    Snapshot snap;
    const RunResult r = runSim({.config = &config,
                                .trace = &trace,
                                .sim = {.maxCycles = 12,
                                        .captureFinal = &snap}});
    ASSERT_TRUE(r.finalCaptured);
    ASSERT_FALSE(r.trace.completed);
    // Both kinds of ready entry are pending: free messages not yet
    // due and dependents released on delivery.
    bool free_ready = false, released_ready = false;
    for (const auto &[cycle, id] : snap.replay.ready) {
        if (trace.depsOf(id).empty())
            free_ready = true;
        else
            released_ready = true;
    }
    EXPECT_TRUE(free_ready);
    EXPECT_TRUE(released_ready);
    const std::vector<std::uint8_t> bytes = encodeSnapshot(snap);
    Fnv1a h;
    h.addBytes(bytes.data(), bytes.size());
    EXPECT_EQ(h.value(), 6297406178923668917ull);
}

} // namespace
} // namespace fasttrack
