/**
 * @file
 * Tests for the experiment helpers: seed stability of the headline
 * measurements and per-node injection fairness under a hotspot.
 */

#include <gtest/gtest.h>

#include <array>

#include "common/rng.hpp"
#include "common/stats.hpp"
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

/** The run points of @p nut under RANDOM traffic at @p rate, one per
 *  seed of @p seeds. */
std::vector<RunPoint>
seedPoints(const NocUnderTest &nut, double rate, std::uint32_t packets,
           const std::vector<std::uint64_t> &seeds,
           Cycle max_cycles = kDefaultMaxCycles)
{
    std::vector<RunPoint> points;
    for (std::uint64_t seed : seeds) {
        RunPoint point{nut.config, nut.channels};
        point.workload.pattern = TrafficPattern::random;
        point.workload.injectionRate = rate;
        point.workload.packetsPerPe = packets;
        point.workload.seed = seed;
        point.maxCycles = max_cycles;
        points.push_back(point);
    }
    return points;
}

TEST(Experiment, SaturationRateIsSeedStable)
{
    // Single-seed bench numbers must be representative: coefficient
    // of variation across seeds stays tight at saturation.
    RunningStat rate;
    for (const SynthResult &res :
         runPoints(seedPoints({"ft", NocConfig::fastTrack(8, 2, 1), 1},
                              1.0, 256, {1, 2, 3, 4, 5}))) {
        ASSERT_TRUE(res.completed);
        rate.add(res.sustainedRate());
    }
    EXPECT_LT(rate.stddev() / rate.mean(), 0.05);
    EXPECT_NEAR(rate.mean(), 0.32, 0.04);
}

TEST(Experiment, UndersizedGuardRecordsFailedSeedsAndNaNCv)
{
    // Regression: a guard too small for any seed to drain must show
    // as a failed run for every seed. The second pass replays the
    // timed-out points from the sweep cache: a cached cycle-guard
    // timeout must still come back incomplete.
    const std::vector<std::uint64_t> seeds{1, 2, 3};
    for (int pass = 0; pass < 2; ++pass) {
        const std::vector<SynthResult> runs =
            runPoints(seedPoints({"hop", NocConfig::hoplite(8), 1}, 1.0,
                                 1024, seeds, /*max_cycles=*/10));
        ASSERT_EQ(runs.size(), seeds.size());
        for (std::size_t i = 0; i < runs.size(); ++i)
            EXPECT_FALSE(runs[i].completed)
                << "pass " << pass << " seed " << seeds[i];
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
    RunningStat latency;
    for (const SynthResult &res :
         runPoints(seedPoints({"hop", NocConfig::hoplite(8), 1}, 0.05,
                              256, {7, 8, 9}))) {
        ASSERT_TRUE(res.completed);
        latency.add(res.avgLatency());
    }
    EXPECT_LT(latency.stddev(), latency.mean() * 0.1);
}

TEST(Experiment, RepeatedRunsSkipIncomplete)
{
    // A livelock-ish setup with a tiny guard: the completed count
    // reports honestly. (Guard small enough that 1K packets cannot
    // drain.)
    NocConfig cfg = NocConfig::hoplite(8);
    std::uint32_t completed = 0;
    for (std::uint64_t seed : {1ull, 2ull}) {
        SyntheticWorkload workload;
        workload.pattern = TrafficPattern::random;
        workload.injectionRate = 1.0;
        workload.packetsPerPe = 1024;
        workload.seed = seed;
        const SynthResult res = runSynthetic(cfg, 1, workload, 10);
        if (res.completed)
            ++completed;
    }
    EXPECT_EQ(completed, 0u);
}

TEST(Experiment, HotspotStarvesUpstreamInjectors)
{
    // Classic Hoplite unfairness: under a hotspot, nodes whose
    // injection competes with heavy through-traffic see far more
    // blocked cycles than quiet corners. A node's offer was refused in
    // a cycle when it is pending both before and after the step.
    Network noc(NocConfig::hoplite(8));
    std::array<std::uint64_t, 64> blocked{};
    const auto step = [&] {
        std::array<bool, 64> pending{};
        for (NodeId s = 0; s < 64; ++s)
            pending[s] = noc.hasPendingOffer(s);
        noc.step();
        for (NodeId s = 0; s < 64; ++s)
            blocked[s] += pending[s] && noc.hasPendingOffer(s);
    };
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
        step();
    }
    // Drain cycle by cycle, so the refusals while draining count too.
    for (int guard = 0; guard < 100000 && !noc.quiescent(); ++guard)
        step();
    ASSERT_TRUE(noc.quiescent());
    std::uint64_t max_blocked = 0, min_blocked = ~0ull;
    for (NodeId s = 0; s < 64; ++s) {
        if (s == 27)
            continue;
        max_blocked = std::max(max_blocked, blocked[s]);
        min_blocked = std::min(min_blocked, blocked[s]);
    }
    EXPECT_GT(max_blocked, 2 * (min_blocked + 1));
}

} // namespace
} // namespace fasttrack
