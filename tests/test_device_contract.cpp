/**
 * @file
 * NocDevice interface-contract tests, parameterized over every device
 * implementation (single Network, MultiChannelNoc, SmartNetwork): the
 * traffic and workload drivers rely on these behaviours uniformly.
 */

#include <gtest/gtest.h>

#include <functional>
#include <memory>

#include "noc/input_queued.hpp"
#include "noc/multichannel.hpp"
#include "noc/smart.hpp"
#include "sim/simulation.hpp"

namespace fasttrack {
namespace {

struct DeviceFactory
{
    const char *name;
    std::function<std::unique_ptr<NocDevice>()> make;
};

class DeviceContractTest : public ::testing::TestWithParam<int>
{
  protected:
    static const DeviceFactory &factory()
    {
        static const DeviceFactory factories[] = {
            {"network-hoplite",
             [] { return makeNoc(NocConfig::hoplite(4), 1); }},
            {"network-ft",
             [] { return makeNoc(NocConfig::fastTrack(4, 2, 1), 1); }},
            {"multichannel",
             [] { return makeNoc(NocConfig::hoplite(4), 3); }},
            {"smart", [] {
                 return std::unique_ptr<NocDevice>(
                     new SmartNetwork(4, 4));
             }},
            {"buffered", [] {
                 return std::make_unique<InputQueuedNetwork>(
                     InputQueuedNetwork::mesh(4, 4));
             }},
            {"vc-torus", [] {
                 return std::make_unique<InputQueuedNetwork>(
                     InputQueuedNetwork::torus(4, 2, 4));
             }},
        };
        return factories[::testing::TestWithParam<int>::GetParam()];
    }

    const DeviceFactory &f = factory();
};

TEST_P(DeviceContractTest, StartsQuiescentAtCycleZero)
{
    auto noc = f.make();
    EXPECT_TRUE(noc->quiescent()) << f.name;
    EXPECT_EQ(noc->now(), 0u);
    EXPECT_GT(noc->linkCount(), 0u);
    EXPECT_GE(noc->channelCount(), 1u);
}

TEST_P(DeviceContractTest, StepAdvancesTime)
{
    auto noc = f.make();
    noc->step();
    noc->step();
    EXPECT_EQ(noc->now(), 2u);
}

TEST_P(DeviceContractTest, OfferPendingUntilAccepted)
{
    auto noc = f.make();
    Packet p;
    p.id = 1;
    p.src = 0;
    p.dst = 5;
    noc->offer(p);
    EXPECT_TRUE(noc->hasPendingOffer(0));
    EXPECT_FALSE(noc->quiescent());
    noc->step(); // empty network: immediate acceptance
    EXPECT_FALSE(noc->hasPendingOffer(0));
}

TEST_P(DeviceContractTest, DeliverCallbackFiresOncePerPacket)
{
    auto noc = f.make();
    std::uint64_t calls = 0;
    noc->setDeliverCallback(
        [&](const Packet &, Cycle) { ++calls; });
    for (NodeId s = 0; s < 8; ++s) {
        Packet p;
        p.id = s + 1;
        p.src = s;
        p.dst = 15 - s;
        noc->offer(p);
    }
    ASSERT_TRUE(noc->drain(10000));
    EXPECT_EQ(calls, 8u);
    const NocStats stats = noc->statsSnapshot();
    EXPECT_EQ(stats.delivered + stats.selfDelivered, 8u);
}

TEST_P(DeviceContractTest, SelfDeliveryBypassesNetwork)
{
    auto noc = f.make();
    std::uint64_t calls = 0;
    noc->setDeliverCallback(
        [&](const Packet &, Cycle) { ++calls; });
    Packet p;
    p.id = 1;
    p.src = 7;
    p.dst = 7;
    noc->offer(p);
    EXPECT_EQ(calls, 1u);
    EXPECT_TRUE(noc->quiescent());
    EXPECT_EQ(noc->statsSnapshot().selfDelivered, 1u);
}

TEST_P(DeviceContractTest, RunsSyntheticWorkload)
{
    auto noc = f.make();
    SyntheticWorkload workload;
    workload.pattern = TrafficPattern::transpose;
    workload.injectionRate = 0.8;
    workload.packetsPerPe = 64;
    const SynthResult res = runSynthetic(*noc, workload, 1'000'000);
    EXPECT_TRUE(res.completed) << f.name;
    EXPECT_EQ(res.stats.delivered + res.stats.selfDelivered,
              64ull * 16);
}

TEST_P(DeviceContractTest, DrainReturnsFalseOnGuard)
{
    auto noc = f.make();
    Packet p;
    p.id = 1;
    p.src = 0;
    p.dst = 5;
    noc->offer(p);
    EXPECT_FALSE(noc->drain(0));
}

INSTANTIATE_TEST_SUITE_P(AllDevices, DeviceContractTest,
                         ::testing::Range(0, 6));

} // namespace
} // namespace fasttrack
