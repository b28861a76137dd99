/**
 * @file
 * Tests for the experiment helpers: seed stability of the headline
 * measurements and per-node fairness accounting.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.hpp"
#include "noc/network.hpp"
#include "sched/blob_cache.hpp"
#include "sim/experiment.hpp"
#include "sim/sweep_cache.hpp"

namespace fasttrack {
namespace {

std::uint64_t
resultHash(const SynthResult &res)
{
    const auto bytes = encodeSynthResult(res);
    sched::Fnv1a h;
    h.addBytes(bytes.data(), bytes.size());
    return h.value();
}

TEST(Experiment, SaturationRateIsSeedStable)
{
    // Single-seed bench numbers must be representative: coefficient
    // of variation across seeds stays tight at saturation.
    const RepeatedResult rep = repeatedRuns(
        {"ft", NocConfig::fastTrack(8, 2, 1), 1},
        TrafficPattern::random, 1.0, 256, {1, 2, 3, 4, 5});
    ASSERT_EQ(rep.completedRuns, 5u);
    EXPECT_TRUE(rep.failedSeeds.empty());
    EXPECT_LT(rep.rateCv(), 0.05);
    EXPECT_NEAR(rep.rate.mean(), 0.32, 0.04);
}

TEST(Experiment, UndersizedGuardRecordsFailedSeedsAndNaNCv)
{
    // Regression: a guard too small for any seed to drain used to
    // leave no trace of *which* runs failed, and rateCv() reported a
    // perfectly-stable 0.0 for a measurement that never happened.
    // The second pass replays the timed-out points from the sweep
    // cache: a cached cycle-guard timeout must still land in
    // failedSeeds.
    for (int pass = 0; pass < 2; ++pass) {
        const RepeatedResult rep = repeatedRuns(
            {"hop", NocConfig::hoplite(8), 1}, TrafficPattern::random,
            1.0, 1024, {1, 2, 3}, /*max_cycles=*/10);
        EXPECT_EQ(rep.completedRuns, 0u) << "pass " << pass;
        EXPECT_EQ(rep.failedSeeds,
                  (std::vector<std::uint64_t>{1, 2, 3}))
            << "pass " << pass;
        EXPECT_TRUE(std::isnan(rep.rateCv())) << "pass " << pass;
    }
}

TEST(Experiment, InjectionSweepDerivesPerPointSeeds)
{
    // Regression: every rate point used to run the *same* seed, so
    // per-point noise was correlated across the sweep. Two points at
    // the same rate must now see different packet streams, and the
    // derivation is pinned to splitmix64(seed ^ pointIndex).
    const NocUnderTest nut{"ft", NocConfig::fastTrack(4, 2, 1), 1};
    const std::vector<double> rates{0.3, 0.3};
    const std::uint64_t seed = 9;
    const auto sweep = injectionSweep(nut, TrafficPattern::random,
                                      rates, 24, seed);
    ASSERT_EQ(sweep.size(), 2u);
    EXPECT_NE(resultHash(sweep[0].result),
              resultHash(sweep[1].result));

    for (std::size_t i = 0; i < sweep.size(); ++i) {
        SyntheticWorkload workload;
        workload.pattern = TrafficPattern::random;
        workload.injectionRate = rates[i];
        workload.packetsPerPe = 24;
        workload.seed =
            splitmix64(seed ^ static_cast<std::uint64_t>(i));
        const SynthResult expect =
            runSynthetic(nut.config, nut.channels, workload);
        EXPECT_EQ(resultHash(sweep[i].result), resultHash(expect))
            << "point " << i;
    }
}

TEST(Experiment, LowLoadLatencyIsSeedStable)
{
    const RepeatedResult rep = repeatedRuns(
        {"hop", NocConfig::hoplite(8), 1}, TrafficPattern::random,
        0.05, 256, {7, 8, 9});
    ASSERT_EQ(rep.completedRuns, 3u);
    EXPECT_LT(rep.avgLatency.stddev(), rep.avgLatency.mean() * 0.1);
}

TEST(Experiment, RepeatedRunsSkipIncomplete)
{
    // A livelock-ish setup with a tiny guard: completedRuns reports
    // honestly. (Guard small enough that 1K packets cannot drain.)
    NocConfig cfg = NocConfig::hoplite(8);
    RepeatedResult rep;
    for (std::uint64_t seed : {1ull, 2ull}) {
        SyntheticWorkload workload;
        workload.pattern = TrafficPattern::random;
        workload.injectionRate = 1.0;
        workload.packetsPerPe = 1024;
        workload.seed = seed;
        const SynthResult res = runSynthetic(cfg, 1, workload, 10);
        if (res.completed)
            ++rep.completedRuns;
    }
    EXPECT_EQ(rep.completedRuns, 0u);
}

TEST(Experiment, NodeCountersSumToGlobals)
{
    Network noc(NocConfig::fastTrack(8, 2, 1));
    SyntheticWorkload workload;
    workload.pattern = TrafficPattern::random;
    workload.injectionRate = 0.8;
    workload.packetsPerPe = 64;
    const SynthResult res = runSynthetic(noc, workload, 1'000'000);
    ASSERT_TRUE(res.completed);

    std::uint64_t injected = 0, delivered = 0, blocked = 0;
    for (const auto &c : noc.nodeCounters()) {
        injected += c.injected;
        delivered += c.delivered;
        blocked += c.blockedCycles;
    }
    EXPECT_EQ(injected, noc.stats().injected);
    EXPECT_EQ(delivered, noc.stats().delivered);
    EXPECT_EQ(blocked, noc.stats().injectionBlockedCycles);
}

TEST(Experiment, HotspotStarvesUpstreamInjectors)
{
    // Classic Hoplite unfairness: under a hotspot, nodes whose
    // injection competes with heavy through-traffic see far more
    // blocked cycles than quiet corners.
    Network noc(NocConfig::hoplite(8));
    std::uint64_t id = 0;
    for (int round = 0; round < 200; ++round) {
        for (NodeId s = 0; s < 64; ++s) {
            if (s != 27 && !noc.hasPendingOffer(s)) {
                Packet p;
                p.id = ++id;
                p.src = s;
                p.dst = 27;
                noc.offer(p);
            }
        }
        noc.step();
    }
    noc.drain(100000);
    std::uint64_t max_blocked = 0, min_blocked = ~0ull;
    for (NodeId s = 0; s < 64; ++s) {
        if (s == 27)
            continue;
        const auto &c = noc.nodeCounters()[s];
        max_blocked = std::max(max_blocked, c.blockedCycles);
        min_blocked = std::min(min_blocked, c.blockedCycles);
    }
    EXPECT_GT(max_blocked, 2 * (min_blocked + 1));
}

} // namespace
} // namespace fasttrack
