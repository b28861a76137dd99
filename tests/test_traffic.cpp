/**
 * @file
 * Tests for synthetic traffic patterns and the Bernoulli injector.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <numeric>
#include <utility>
#include <vector>

#include "noc/network.hpp"
#include "sim/simulation.hpp"
#include "traffic/chunked_queue.hpp"
#include "traffic/injector.hpp"

namespace fasttrack {
namespace {

using PendingQueue = ChunkedQueue<PendingPacket>;

/** A queue entry whose every field is derived from @p id, so a read of
 *  a stale or never-written slot shows up as a wrong field. */
PendingPacket
entry(std::uint64_t id)
{
    PendingPacket rec;
    rec.id = id;
    rec.created = id * 3 + 1;
    rec.dst = static_cast<NodeId>(id % 97);
    return rec;
}

void
pushIds(PendingQueue &q, std::uint64_t first, std::uint64_t count)
{
    for (std::uint64_t id = first; id < first + count; ++id)
        q.push_back(entry(id));
}

/** Pop @p count entries, returning their ids; an entry whose fields
 *  do not all match its id is reported as id 0. */
std::vector<std::uint64_t>
popIds(PendingQueue &q, std::size_t count)
{
    std::vector<std::uint64_t> ids;
    for (std::size_t i = 0; i < count && !q.empty(); ++i) {
        const PendingPacket &rec = q.front();
        const PendingPacket want = entry(rec.id);
        ids.push_back(rec.created == want.created && rec.dst == want.dst
                          ? rec.id
                          : 0);
        q.pop_front();
    }
    return ids;
}

std::vector<std::uint64_t>
idRange(std::uint64_t first, std::uint64_t count)
{
    std::vector<std::uint64_t> ids(count);
    std::iota(ids.begin(), ids.end(), first);
    return ids;
}

TEST(Pattern, BitComplementIsInvolution)
{
    DestinationGenerator gen(TrafficPattern::bitComplement, 8);
    Rng rng(1);
    for (NodeId src = 0; src < 64; ++src) {
        const NodeId d = gen.dest(src, rng);
        EXPECT_LT(d, 64u);
        EXPECT_EQ(gen.dest(d, rng), src);
        EXPECT_NE(d, src);
    }
}

TEST(Pattern, TransposeSwapsCoordinates)
{
    DestinationGenerator gen(TrafficPattern::transpose, 8);
    Rng rng(1);
    for (NodeId src = 0; src < 64; ++src) {
        const Coord s = toCoord(src, 8);
        const Coord d = toCoord(gen.dest(src, rng), 8);
        EXPECT_EQ(d.x, s.y);
        EXPECT_EQ(d.y, s.x);
    }
}

TEST(Pattern, RandomNeverSelfAndCoversAll)
{
    DestinationGenerator gen(TrafficPattern::random, 4);
    Rng rng(2);
    std::map<NodeId, int> hits;
    for (int i = 0; i < 8000; ++i) {
        const NodeId d = gen.dest(5, rng);
        EXPECT_NE(d, 5u);
        EXPECT_LT(d, 16u);
        ++hits[d];
    }
    EXPECT_EQ(hits.size(), 15u);
    // Roughly uniform: each other node within 25% of expectation.
    for (const auto &[node, count] : hits)
        EXPECT_NEAR(count, 8000.0 / 15.0, 8000.0 / 15.0 * 0.25);
}

TEST(Pattern, LocalStaysWithinRadius)
{
    DestinationGenerator gen(TrafficPattern::local, 8, 2);
    Rng rng(3);
    for (int i = 0; i < 4000; ++i) {
        const NodeId src = static_cast<NodeId>(rng.nextBelow(64));
        const Coord s = toCoord(src, 8);
        const Coord d = toCoord(gen.dest(src, rng), 8);
        const std::uint32_t dist =
            ringDistance(s.x, d.x, 8) + ringDistance(s.y, d.y, 8);
        EXPECT_GE(dist, 1u);
        EXPECT_LE(dist, 2u);
    }
}

TEST(Pattern, LocalNeverSelfOnTinyTorus)
{
    DestinationGenerator gen(TrafficPattern::local, 2, 2);
    Rng rng(4);
    for (int i = 0; i < 1000; ++i)
        EXPECT_NE(gen.dest(0, rng), 0u);
}

TEST(PatternDeathTest, BitComplementNeedsPowerOfTwo)
{
    EXPECT_EXIT(DestinationGenerator(TrafficPattern::bitComplement, 6),
                ::testing::ExitedWithCode(1), "power-of-two");
}

TEST(Pattern, NamesRoundTrip)
{
    for (TrafficPattern p : kAllPatterns)
        EXPECT_EQ(patternFromString(toString(p)), p);
}

TEST(ChunkedQueue, FifoAcrossChunkBoundaries)
{
    // 512-entry chunks: pushing 300 and popping 130 per round walks
    // both ends of the queue across several chunk boundaries.
    ChunkArena arena(PendingQueue::chunkBytes());
    PendingQueue q(arena);
    std::uint64_t pushed = 1, popped = 1;
    for (int round = 0; round < 6; ++round) {
        pushIds(q, pushed, 300);
        pushed += 300;
        EXPECT_EQ(popIds(q, 130), idRange(popped, 130));
        popped += 130;
        EXPECT_EQ(q.size(), pushed - popped);
    }
    EXPECT_EQ(popIds(q, pushed - popped), idRange(popped, pushed - popped));
    EXPECT_TRUE(q.empty());
}

TEST(ChunkedQueue, DrainedQueueRefillsFromItsRecycledChunk)
{
    ChunkArena arena(PendingQueue::chunkBytes());
    PendingQueue q(arena);
    pushIds(q, 1, 10);
    const PendingPacket *slot0 = &q.front();
    EXPECT_EQ(popIds(q, 10), idRange(1, 10));
    EXPECT_TRUE(q.empty());

    // Draining hands the chunk back to the arena, and the next push
    // takes it again: its bytes still hold the old entries, and only
    // the new ones may ever be read.
    pushIds(q, 101, 3);
    EXPECT_EQ(&q.front(), slot0);
    EXPECT_EQ(popIds(q, 3), idRange(101, 3));
    pushIds(q, 201, 700);
    EXPECT_EQ(&q.front(), slot0);
    EXPECT_EQ(popIds(q, 700), idRange(201, 700));
    EXPECT_TRUE(q.empty());
}

TEST(ChunkedQueue, ForEachVisitsFrontToBack)
{
    ChunkArena arena(PendingQueue::chunkBytes());
    PendingQueue q(arena);
    std::vector<std::uint64_t> seen;
    q.forEach([&](const PendingPacket &rec) { seen.push_back(rec.id); });
    EXPECT_TRUE(seen.empty());

    // Head in the second chunk, tail in the third.
    pushIds(q, 1, 1100);
    popIds(q, 700);
    pushIds(q, 1101, 50);
    q.forEach([&](const PendingPacket &rec) {
        seen.push_back(rec.created == entry(rec.id).created ? rec.id : 0);
    });
    EXPECT_EQ(seen, idRange(701, 450));
    EXPECT_EQ(q.size(), 450u); // forEach consumes nothing
}

TEST(ChunkedQueue, MoveConstructionTransfersEntries)
{
    ChunkArena arena(PendingQueue::chunkBytes());
    PendingQueue q(arena);
    pushIds(q, 1, 600);
    popIds(q, 100);
    PendingQueue moved(std::move(q));
    EXPECT_TRUE(q.empty());
    EXPECT_EQ(moved.size(), 500u);
    EXPECT_EQ(popIds(moved, 500), idRange(101, 500));

    // The moved-from queue is empty, not broken.
    pushIds(q, 1001, 520);
    EXPECT_EQ(popIds(q, 520), idRange(1001, 520));
}

TEST(ChunkedQueue, QueuesSharingAnArenaStayApart)
{
    ChunkArena arena(PendingQueue::chunkBytes());
    PendingQueue a(arena), b(arena);
    // Interleaved growth: the arena hands the two queues alternating
    // chunks.
    for (std::uint64_t i = 0; i < 1200; ++i) {
        a.push_back(entry(1 + i));
        b.push_back(entry(10'001 + i));
    }
    EXPECT_EQ(popIds(a, 1200), idRange(1, 1200));
    // b grows into the chunks a just released.
    pushIds(b, 11'201, 600);
    EXPECT_EQ(popIds(b, 1800), idRange(10'001, 1800));
    EXPECT_TRUE(a.empty());
    EXPECT_TRUE(b.empty());
}

TEST(Injector, GeneratesExactBudget)
{
    Network noc(NocConfig::hoplite(4));
    SyntheticWorkload workload;
    workload.pattern = TrafficPattern::random;
    workload.injectionRate = 0.5;
    workload.packetsPerPe = 50;
    SyntheticInjector injector(noc, workload);
    EXPECT_EQ(injector.budget(), 16u * 50);

    for (int guard = 0; guard < 100000 && !injector.done(); ++guard) {
        injector.tick();
        noc.step();
    }
    ASSERT_TRUE(injector.done());
    EXPECT_EQ(injector.generated(), 16u * 50);
    EXPECT_EQ(noc.stats().delivered + noc.stats().selfDelivered,
              16u * 50);
}

TEST(Injector, GenerationRateMatchesConfig)
{
    Network noc(NocConfig::hoplite(8));
    SyntheticWorkload workload;
    workload.pattern = TrafficPattern::random;
    workload.injectionRate = 0.10;
    workload.packetsPerPe = 1u << 30; // effectively unbounded
    SyntheticInjector injector(noc, workload);

    constexpr int kCycles = 5000;
    for (int i = 0; i < kCycles; ++i) {
        injector.tick();
        noc.step();
    }
    const double per_pe_per_cycle =
        static_cast<double>(injector.generated()) / (64.0 * kCycles);
    EXPECT_NEAR(per_pe_per_cycle, 0.10, 0.01);
}

TEST(Injector, SustainedRateEqualsOfferedBelowSaturation)
{
    SyntheticWorkload workload;
    workload.pattern = TrafficPattern::random;
    workload.injectionRate = 0.05;
    workload.packetsPerPe = 500;
    const SynthResult res =
        runSynthetic(NocConfig::hoplite(8), 1, workload);
    ASSERT_TRUE(res.completed);
    // Below saturation the NoC keeps up with generation; the measured
    // rate only differs from offered by the final drain tail.
    EXPECT_NEAR(res.sustainedRate(), 0.05, 0.006);
}

TEST(InjectorDeathTest, RejectsBadRate)
{
    Network noc(NocConfig::hoplite(4));
    SyntheticWorkload workload;
    workload.injectionRate = 0.0;
    EXPECT_DEATH(SyntheticInjector(noc, workload), "injection rate");
}

} // namespace
} // namespace fasttrack
