/**
 * @file
 * Tests for message segmentation (serialized cacheline transfers).
 */

#include <gtest/gtest.h>

#include "noc/network.hpp"
#include "sim/simulation.hpp"
#include "traffic/segmentation.hpp"

namespace fasttrack {
namespace {

Trace
baseTrace()
{
    Trace t;
    t.name = "seg";
    t.n = 4;
    t.add({0, 5, 3, 0});
    t.add({5, 10, 0, 2}, {0});
    return t;
}

TEST(Segmentation, FragmentsPerMessage)
{
    EXPECT_EQ(fragmentsPerMessage(512, 512), 1u);
    EXPECT_EQ(fragmentsPerMessage(512, 256), 2u);
    EXPECT_EQ(fragmentsPerMessage(512, 96), 6u);
    EXPECT_EQ(fragmentsPerMessage(100, 256), 1u);
    EXPECT_EQ(fragmentsPerMessage(1, 1), 1u);
}

TEST(Segmentation, WideEnoughIsIdentity)
{
    const Trace t = baseTrace();
    const Trace s = segmentTrace(t, 256, 256);
    EXPECT_EQ(s.messages.size(), t.messages.size());
    EXPECT_EQ(s.name, t.name);
}

TEST(Segmentation, ExpandsCountsAndMetadata)
{
    const Trace t = baseTrace();
    const Trace s = segmentTrace(t, 512, 128); // 4 fragments each
    ASSERT_EQ(s.messages.size(), 8u);
    for (std::size_t i = 0; i < 4; ++i) {
        EXPECT_EQ(s.messages[i].src, 0u);
        EXPECT_EQ(s.messages[i].dst, 5u);
        EXPECT_EQ(s.messages[i].earliest, 3u);
        EXPECT_TRUE(s.depsOf(i).empty());
    }
    for (std::size_t i = 4; i < 8; ++i) {
        EXPECT_EQ(s.messages[i].src, 5u);
        // Each fragment of message 1 depends on all 4 fragments of
        // message 0.
        EXPECT_EQ(s.depsOf(i).size(), 4u);
        EXPECT_EQ(s.messages[i].delayAfterDeps, 2u);
    }
    s.validate();
}

TEST(Segmentation, ReplayRespectsFragmentDependencies)
{
    const Trace s = segmentTrace(baseTrace(), 512, 128);
    Network noc(NocConfig::hoplite(4));
    const RunResult r = runSim(
        {.device = &noc, .trace = &s, .sim = {.maxCycles = 100000}});
    EXPECT_TRUE(r.trace.completed);
    const Cycle completion = r.trace.completion;
    // Four fragments serialize through one source: the second
    // message's fragments cannot even start before all four of the
    // first arrive (>= 4 injection cycles + path + compute delay).
    EXPECT_GE(completion, 4u + 2 + 2);
}

TEST(Segmentation, NarrowerIsMorePackets)
{
    const Trace t = baseTrace();
    EXPECT_GT(segmentTrace(t, 512, 64).messages.size(),
              segmentTrace(t, 512, 256).messages.size());
}

} // namespace
} // namespace fasttrack
