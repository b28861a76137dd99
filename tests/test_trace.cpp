/**
 * @file
 * Tests for the trace format and the dependency-aware replayer.
 */

#include <gtest/gtest.h>

#include <map>
#include <sstream>

#include "noc/network.hpp"
#include "traffic/trace_replay.hpp"
#include "workloads/dataflow.hpp"
#include "workloads/graph_analytics.hpp"
#include "workloads/mp_overlay.hpp"
#include "workloads/spmv.hpp"

namespace fasttrack {
namespace {

Trace
smallTrace()
{
    Trace t;
    t.name = "unit";
    t.n = 4;
    // 0: (0 -> 5) at cycle 0
    // 1: (5 -> 10) after 0 delivers, +3 compute
    // 2: (10 -> 15) after 1 delivers
    // 3: (1 -> 2) independent, not before cycle 20
    TraceMessage m0{0, 0, 5, 0, 0, {}};
    TraceMessage m1{1, 5, 10, 0, 3, {0}};
    TraceMessage m2{2, 10, 15, 0, 0, {1}};
    TraceMessage m3{3, 1, 2, 20, 0, {}};
    t.messages = {m0, m1, m2, m3};
    return t;
}

TEST(Trace, SaveLoadRoundTrip)
{
    const Trace t = smallTrace();
    std::stringstream ss;
    t.save(ss);
    const Trace u = Trace::load(ss);
    EXPECT_EQ(u.name, t.name);
    EXPECT_EQ(u.n, t.n);
    ASSERT_EQ(u.messages.size(), t.messages.size());
    for (std::size_t i = 0; i < t.messages.size(); ++i) {
        EXPECT_EQ(u.messages[i].src, t.messages[i].src);
        EXPECT_EQ(u.messages[i].dst, t.messages[i].dst);
        EXPECT_EQ(u.messages[i].earliest, t.messages[i].earliest);
        EXPECT_EQ(u.messages[i].delayAfterDeps,
                  t.messages[i].delayAfterDeps);
        EXPECT_EQ(u.messages[i].deps, t.messages[i].deps);
    }
}

TEST(TraceDeathTest, ValidateRejectsBadTraces)
{
    Trace t = smallTrace();
    t.messages[1].deps = {3}; // forward dependency
    EXPECT_EXIT(t.validate(), ::testing::ExitedWithCode(1),
                "earlier messages");

    Trace u = smallTrace();
    u.messages[2].dst = 99;
    EXPECT_EXIT(u.validate(), ::testing::ExitedWithCode(1), "node");

    Trace v = smallTrace();
    v.messages[0].id = 7;
    EXPECT_EXIT(v.validate(), ::testing::ExitedWithCode(1), "has id");

    // A side-1 torus is a user error, not a failed assertion.
    Trace w = smallTrace();
    w.n = 1;
    EXPECT_EXIT(w.validate(), ::testing::ExitedWithCode(1),
                "side must be >= 2");
}

TEST(TraceDeathTest, LoadRejectsCountsTheFileCannotHold)
{
    // A count the file does not back must never size an allocation:
    // each is a malformed trace (exit 1), not a std::length_error.
    const auto load = [](const std::string &body) {
        std::istringstream is("# fasttrack-trace v1\nname hostile\nn 4\n" +
                              body);
        Trace::load(is);
    };
    EXPECT_EXIT(load("messages 1\n0 0 1 0 0 4000000000000000000\n"),
                ::testing::ExitedWithCode(1), "malformed trace");
    EXPECT_EXIT(load("messages 4000000000000000000\n0 0 1 0 0 0\n"),
                ::testing::ExitedWithCode(1), "malformed trace");
}

TEST(TraceReplay, DependenciesRespected)
{
    const Trace trace = smallTrace();
    Network noc(NocConfig::hoplite(4));
    std::map<std::uint64_t, Cycle> delivered_at;
    std::map<std::uint64_t, Cycle> injected_at;

    TraceReplayer replayer(noc, trace);
    // Intercept deliveries *after* the replayer installed its own
    // callback is not possible (single callback), so observe through
    // packet bookkeeping instead: record per-message times by polling.
    // Simpler: wrap by re-running with our own chained callback is
    // not supported; rely on the replayer's own assertions plus the
    // final schedule check below.
    const Cycle completion = replayer.run(100000);
    EXPECT_TRUE(replayer.finished());
    EXPECT_GE(completion, 3u); // at least the chain length
    EXPECT_EQ(replayer.deliveredMessages(), trace.messages.size());
    (void)delivered_at;
    (void)injected_at;
}

TEST(TraceReplay, ChainLatencyIsSequential)
{
    // The 3-message chain 0 -> 1 -> 2 spans three network traversals
    // plus the compute delay; completion must exceed their sum and a
    // parallel replay of independent messages must be much faster.
    Trace chain;
    chain.name = "chain";
    chain.n = 4;
    chain.messages = {
        TraceMessage{0, 0, 5, 0, 0, {}},
        TraceMessage{1, 5, 10, 0, 5, {0}},
        TraceMessage{2, 10, 15, 0, 5, {1}},
    };
    Network noc(NocConfig::hoplite(4));
    TraceReplayer replayer(noc, chain);
    const Cycle completion = replayer.run(100000);
    // Each hop-path is >= 2 cycles on a 4x4; two compute delays of 5.
    EXPECT_GE(completion, 2u * 3 + 5 + 5);
}

TEST(TraceReplay, EarliestTimestampHonored)
{
    Trace t;
    t.name = "ts";
    t.n = 4;
    t.messages = {TraceMessage{0, 0, 5, 50, 0, {}}};
    Network noc(NocConfig::hoplite(4));
    Cycle delivered = 0;
    // The replayer owns the callback; measure via completion time.
    TraceReplayer replayer(noc, t);
    delivered = replayer.run(100000);
    EXPECT_GE(delivered, 50u);
}

TEST(TraceReplay, SelfMessagesResolveDependencies)
{
    // Message 0 is node-local (src == dst); message 1 depends on it.
    Trace t;
    t.name = "self";
    t.n = 4;
    t.messages = {
        TraceMessage{0, 3, 3, 0, 0, {}},
        TraceMessage{1, 3, 9, 0, 0, {0}},
    };
    Network noc(NocConfig::hoplite(4));
    TraceReplayer replayer(noc, t);
    replayer.run(100000);
    EXPECT_TRUE(replayer.finished());
}

TEST(TraceReplayDeathTest, WrongNocSizeRejected)
{
    const Trace trace = smallTrace(); // n = 4
    Network noc(NocConfig::hoplite(8));
    EXPECT_DEATH(TraceReplayer(noc, trace), "trace is for");
}

TEST(TraceReplay, FanOutFanIn)
{
    // One producer fans out to 8 consumers; a collector depends on
    // all 8 echoes. Checks multi-dependency counting.
    Trace t;
    t.name = "fan";
    t.n = 4;
    std::vector<std::uint64_t> echo_ids;
    for (std::uint64_t i = 0; i < 8; ++i)
        t.messages.push_back(
            TraceMessage{i, 0, static_cast<NodeId>(i + 1), 0, 0, {}});
    for (std::uint64_t i = 0; i < 8; ++i) {
        t.messages.push_back(TraceMessage{8 + i,
                                          static_cast<NodeId>(i + 1),
                                          15, 0, 0, {i}});
        echo_ids.push_back(8 + i);
    }
    t.messages.push_back(TraceMessage{16, 15, 0, 0, 0, echo_ids});
    Network noc(NocConfig::hoplite(4));
    TraceReplayer replayer(noc, t);
    replayer.run(100000);
    EXPECT_TRUE(replayer.finished());
    EXPECT_EQ(replayer.deliveredMessages(), 17u);
}

TEST(Trace, CatalogTracesRoundTripThroughFiles)
{
    // Every workload family's trace survives save/load bit-exactly.
    std::vector<Trace> traces;
    {
        // Small representatives of each generator.
        MatrixParams mp;
        mp.rows = 600;
        traces.push_back(spmvTrace(generateMatrix(mp), 4));
        traces.push_back(graphPushTrace(
            rmat(8, 2048, 0.57, 0.17, 0.17, 3), 4,
            VertexPartition::hashed, 2));
        LuDagParams lp{"rt", 400, 6.0, 1.8, 2, 5};
        traces.push_back(dataflowTrace(sparseLuDag(lp), 4));
        traces.push_back(
            mpOverlayTrace(parsecCatalog().front(), 4, 12));
    }
    for (const Trace &t : traces) {
        std::stringstream ss;
        t.save(ss);
        const Trace u = Trace::load(ss);
        ASSERT_EQ(u.messages.size(), t.messages.size()) << t.name;
        for (std::size_t i = 0; i < t.messages.size(); ++i) {
            EXPECT_EQ(u.messages[i].src, t.messages[i].src);
            EXPECT_EQ(u.messages[i].dst, t.messages[i].dst);
            EXPECT_EQ(u.messages[i].earliest, t.messages[i].earliest);
            EXPECT_EQ(u.messages[i].deps, t.messages[i].deps);
        }
    }
}

} // namespace
} // namespace fasttrack
