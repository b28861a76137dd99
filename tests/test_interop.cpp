/**
 * @file
 * Cross-cutting interoperability tests: every NoC device class runs
 * every workload machinery (traces, segmentation), link counters
 * reconcile with global stats, and unusual but legal compositions
 * (replicated FastTrack channels) behave.
 */

#include <gtest/gtest.h>

#include "noc/input_queued.hpp"
#include "noc/network.hpp"
#include "noc/smart.hpp"
#include "sim/simulation.hpp"
#include "sim/telemetry_session.hpp"
#include "traffic/segmentation.hpp"
#include "workloads/dataflow.hpp"

namespace fasttrack {
namespace {

Trace
sampleTrace(std::uint32_t n)
{
    LuDagParams params{"interop", 500, 6.0, 1.8, 2, 99};
    return dataflowTrace(sparseLuDag(params), n);
}

TEST(Interop, EveryDeviceReplaysTheSameTrace)
{
    const Trace trace = sampleTrace(4);
    std::vector<std::unique_ptr<NocDevice>> devices;
    devices.push_back(makeNoc(NocConfig::hoplite(4), 1));
    devices.push_back(makeNoc(NocConfig::fastTrack(4, 2, 1), 1));
    devices.push_back(makeNoc(NocConfig::hoplite(4), 2));
    devices.emplace_back(new SmartNetwork(4, 4));
    devices.push_back(std::make_unique<InputQueuedNetwork>(
        InputQueuedNetwork::mesh(4, 4)));
    devices.push_back(std::make_unique<InputQueuedNetwork>(
        InputQueuedNetwork::torus(4, 2, 4)));

    for (auto &dev : devices) {
        const RunResult r =
            runSim({.device = dev.get(),
                    .trace = &trace,
                    .sim = {.maxCycles = 1'000'000}});
        EXPECT_TRUE(r.trace.completed);
    }
}

TEST(Interop, SegmentedTraceOnFastTrack)
{
    const Trace trace =
        segmentTrace(sampleTrace(4), /*message_bits=*/512,
                     /*datawidth=*/128);
    const NocConfig config = NocConfig::fastTrack(4, 2, 2);
    const RunResult r = runSim({.config = &config,
                                .trace = &trace,
                                .sim = {.maxCycles = 2'000'000}});
    EXPECT_TRUE(r.trace.completed);
}

TEST(Interop, LinkCountersReconcileWithStats)
{
    // The telemetry sink counts every link traversal, indexed
    // node * 4 + OutPort; the run needs its counters, not its rings.
    TelemetrySession session({.traceEvents = false});
    Network noc(NocConfig::fastTrack(8, 2, 1));
    SyntheticWorkload workload;
    workload.pattern = TrafficPattern::random;
    workload.injectionRate = 0.6;
    workload.packetsPerPe = 64;
    ASSERT_TRUE(runSynthetic(noc, workload, 1'000'000).completed);

    const std::vector<std::uint64_t> links =
        session.sink().totalLinkCounts();
    std::uint64_t short_links = 0, express_links = 0;
    for (std::size_t i = 0; i < links.size(); ++i) {
        if (isExpress(static_cast<OutPort>(i % kNumOutPorts)))
            express_links += links[i];
        else
            short_links += links[i];
    }
    // Exits consume an output port but traverse no link; both the
    // per-link counters and the global hop counters exclude them, so
    // the two views must agree exactly.
    EXPECT_EQ(short_links, noc.stats().shortHopTraversals);
    EXPECT_EQ(express_links, noc.stats().expressHopTraversals);
}

TEST(Interop, ReplicatedFastTrackChannels)
{
    // Not a paper configuration, but the composition must be sound:
    // two independent FastTrack channels behind one client interface.
    SyntheticWorkload workload;
    workload.pattern = TrafficPattern::random;
    workload.injectionRate = 1.0;
    workload.packetsPerPe = 128;
    const SynthResult two =
        runSynthetic(NocConfig::fastTrack(8, 2, 1), 2, workload,
                     2'000'000);
    const SynthResult one =
        runSynthetic(NocConfig::fastTrack(8, 2, 1), 1, workload,
                     2'000'000);
    ASSERT_TRUE(two.completed && one.completed);
    EXPECT_GT(two.sustainedRate(), one.sustainedRate());
}

TEST(Interop, ZeroLoadLatencyOrderingAcrossClasses)
{
    // At near-zero load: FastTrack < Hoplite (express shortcuts);
    // VC torus < buffered mesh (wraparound halves distances).
    SyntheticWorkload workload;
    workload.pattern = TrafficPattern::random;
    workload.injectionRate = 0.02;
    workload.packetsPerPe = 128;

    const double ft = runSynthetic(NocConfig::fastTrack(8, 2, 1), 1,
                                   workload).avgLatency();
    const double hop =
        runSynthetic(NocConfig::hoplite(8), 1, workload).avgLatency();
    auto mesh = InputQueuedNetwork::mesh(8, 4);
    const double mesh_lat = runSynthetic(mesh, workload).avgLatency();
    auto torus = InputQueuedNetwork::torus(8, 2, 4);
    const double torus_lat =
        runSynthetic(torus, workload).avgLatency();

    EXPECT_LT(ft, hop);
    EXPECT_LT(torus_lat, mesh_lat);
}

} // namespace
} // namespace fasttrack
