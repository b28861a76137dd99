/**
 * @file
 * Tests for the trace format and the dependency-aware replayer.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>

#include "common/fnv1a.hpp"
#include "noc/engine_state.hpp"
#include "noc/multichannel.hpp"
#include "noc/network.hpp"
#include "run_input_variants.hpp"
#include "sim/simulation.hpp"
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
    t.add({0, 5, 0, 0});
    t.add({5, 10, 0, 3}, {0});
    t.add({10, 15, 0, 0}, {1});
    t.add({1, 2, 20, 0});
    return t;
}

TEST(Trace, SaveLoadRoundTrip)
{
    Trace t = smallTrace();
    t.name = "unit with a spaced name";
    std::stringstream ss;
    t.save(ss);
    Trace u;
    ASSERT_EQ(Trace::load(ss, u), "");
    EXPECT_EQ(u.name, t.name);
    EXPECT_EQ(u.n, t.n);
    ASSERT_EQ(u.messages.size(), t.messages.size());
    for (std::size_t i = 0; i < t.messages.size(); ++i) {
        EXPECT_EQ(u.messages[i].src, t.messages[i].src);
        EXPECT_EQ(u.messages[i].dst, t.messages[i].dst);
        EXPECT_EQ(u.messages[i].earliest, t.messages[i].earliest);
        EXPECT_EQ(u.messages[i].delayAfterDeps,
                  t.messages[i].delayAfterDeps);
        EXPECT_TRUE(std::ranges::equal(u.depsOf(i), t.depsOf(i)));
    }
}

TEST(Trace, TextFormatIsPinned)
{
    std::ostringstream os;
    pinTrace().save(os);
    const std::string text = os.str();
    Fnv1a h;
    h.addBytes(text.data(), text.size());
    EXPECT_EQ(h.value(), UINT64_C(0xe743ecaaf8a7fcd0));

    std::istringstream is("# fasttrack-trace v1\n"
                          "name pin\n"
                          "n 8\n"
                          "messages 4\n"
                          "0 1 62 0 0 0\n"
                          "1 63 5 7 0 0\n"
                          "2 9 40 3 11 2 0 1\n"
                          "3 40 2 0 4 1 2\n");
    Trace loaded;
    EXPECT_EQ(Trace::load(is, loaded), "");
    EXPECT_TRUE(loaded == pinTrace());
}

TEST(TraceDeathTest, ValidateRejectsBadTraces)
{
    // smallTrace with message 1 depending on 3: a forward dependency
    // on a message that exists.
    Trace t;
    t.name = "unit";
    t.n = 4;
    t.add({0, 5, 0, 0});
    t.add({5, 10, 0, 3}, {3});
    t.add({10, 15, 0, 0}, {1});
    t.add({1, 2, 20, 0});
    EXPECT_EXIT(t.validate(), ::testing::ExitedWithCode(1),
                "earlier messages");

    // A dependency on a message that does not exist.
    Trace d = smallTrace();
    d.add({0, 1, 0, 0}, {5});
    EXPECT_EXIT(d.validate(), ::testing::ExitedWithCode(1),
                "earlier messages");

    Trace u = smallTrace();
    u.messages[2].dst = 99;
    EXPECT_EXIT(u.validate(), ::testing::ExitedWithCode(1), "node");

    // Messages that grew without add() have no dependency index.
    Trace g = smallTrace();
    g.messages.push_back(g.messages.front());
    EXPECT_EXIT(g.validate(), ::testing::ExitedWithCode(1), "add\\(\\)");

    // A side-1 torus is a user error, not a failed assertion.
    Trace w = smallTrace();
    w.n = 1;
    EXPECT_EXIT(w.validate(), ::testing::ExitedWithCode(1),
                "side must be >= 2");
}

TEST(Trace, LoadRejectsCountsTheFileCannotHold)
{
    // A count the file does not back must never size an allocation:
    // each is a malformed trace, not a std::length_error.
    const auto load = [](const std::string &body) {
        std::istringstream is("# fasttrack-trace v1\nname hostile\nn 4\n" +
                              body);
        Trace trace;
        return Trace::load(is, trace);
    };
    for (const char *body : {
             "messages 1\n0 0 1 0 0 4000000000000000000\n",
             "messages 4000000000000000000\n0 0 1 0 0 0\n",
             // A declared zero is checked like any other count.
             "messages 0\n0 0 1 0 0 0\n1 0 1 0 0 0\n",
             "messages two\n",
             // Tokens past the declared dependencies.
             "0 0 5 0 0 0 17 garbage\n",
             // Ids are indices: a file line whose id is not its index
             // is refused where it is read.
             "7 0 5 0 0 0\n",
         })
        EXPECT_EQ(load(body).rfind("malformed trace", 0), 0u) << body;
    EXPECT_NE(load("7 0 5 0 0 0\n").find("has id"), std::string::npos);
    // A well-formed file is still checked by validationError().
    EXPECT_NE(load("0 0 99 0 0 0\n").find("outside 4x4"),
              std::string::npos);
}

TEST(TraceReplay, DependenciesRespected)
{
    const Trace trace = smallTrace();
    Network noc(NocConfig::hoplite(4));
    // The replayer owns the delivery callback, so rely on its own
    // assertions plus the final schedule check below.
    const RunResult r = runSim(
        {.device = &noc, .trace = &trace, .sim = {.maxCycles = 100000}});
    EXPECT_TRUE(r.trace.completed);
    EXPECT_GE(r.trace.completion, 3u); // at least the chain length
    EXPECT_EQ(r.trace.stats.delivered + r.trace.stats.selfDelivered,
              trace.messages.size());
}

TEST(TraceReplay, ChainLatencyIsSequential)
{
    // The 3-message chain 0 -> 1 -> 2 spans three network traversals
    // plus the compute delay; completion must exceed their sum and a
    // parallel replay of independent messages must be much faster.
    Trace chain;
    chain.name = "chain";
    chain.n = 4;
    chain.add({0, 5, 0, 0});
    chain.add({5, 10, 0, 5}, {0});
    chain.add({10, 15, 0, 5}, {1});
    Network noc(NocConfig::hoplite(4));
    const RunResult r = runSim(
        {.device = &noc, .trace = &chain, .sim = {.maxCycles = 100000}});
    // Each hop-path is >= 2 cycles on a 4x4; two compute delays of 5.
    EXPECT_GE(r.trace.completion, 2u * 3 + 5 + 5);
}

TEST(TraceReplay, EarliestTimestampHonored)
{
    Trace t;
    t.name = "ts";
    t.n = 4;
    t.add({0, 5, 50, 0});
    Network noc(NocConfig::hoplite(4));
    // The replayer owns the callback; measure via completion time.
    const RunResult r = runSim(
        {.device = &noc, .trace = &t, .sim = {.maxCycles = 100000}});
    EXPECT_GE(r.trace.completion, 50u);
}

TEST(TraceReplay, SelfMessagesResolveDependencies)
{
    // Message 0 is node-local (src == dst); message 1 depends on it.
    Trace t;
    t.name = "self";
    t.n = 4;
    t.add({3, 3, 0, 0});
    t.add({3, 9, 0, 0}, {0});
    Network noc(NocConfig::hoplite(4));
    const RunResult r = runSim(
        {.device = &noc, .trace = &t, .sim = {.maxCycles = 100000}});
    EXPECT_TRUE(r.trace.completed);
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
        t.add({0, static_cast<NodeId>(i + 1), 0, 0});
    for (std::uint64_t i = 0; i < 8; ++i)
        echo_ids.push_back(
            t.add({static_cast<NodeId>(i + 1), 15, 0, 0}, {i}));
    t.add({15, 0, 0, 0}, echo_ids);
    Network noc(NocConfig::hoplite(4));
    const RunResult r = runSim(
        {.device = &noc, .trace = &t, .sim = {.maxCycles = 100000}});
    EXPECT_TRUE(r.trace.completed);
    EXPECT_EQ(r.trace.stats.delivered + r.trace.stats.selfDelivered, 17u);
}

TEST(TraceReplay, RestoreRefusesStatesNoReplayReaches)
{
    // Capture an LU replay where messages are in every state at once:
    // waiting on dependencies, ready, queued at a source, in flight.
    const Trace trace = dataflowTrace(
        sparseLuDag(LuDagParams{"restore", 600, 8.0, 1.8, 3, 13}), 4);
    const NocConfig cfg = NocConfig::fastTrack(4, 2, 1);
    Network noc(cfg);
    TraceReplayer replayer(noc, trace);
    TraceReplayState st;
    EngineState engine;
    bool mixed = false;
    while (!mixed && !replayer.finished()) {
        replayer.tick();
        noc.step();
        ASSERT_TRUE(replayer.captureState(st));
        ASSERT_TRUE(noc.captureState(engine));
        mixed = !engine.slabPackets.empty() && !st.ready.empty() &&
                std::any_of(st.sourceQueues.begin(), st.sourceQueues.end(),
                            [](const auto &q) { return !q.empty(); }) &&
                std::any_of(st.pendingDeps.begin(), st.pendingDeps.end(),
                            [](std::uint32_t n) { return n > 0; });
    }
    ASSERT_TRUE(mixed);

    const auto restores = [&](const EngineState &e,
                              const TraceReplayState &s) {
        Network fresh(cfg);
        TraceReplayer again(fresh, trace);
        return fresh.restoreState(e) && again.restoreState(s);
    };
    EXPECT_TRUE(restores(engine, st));

    EngineState unknown_tag = engine;
    unknown_tag.slabPackets.front().tag = trace.messages.size();
    EXPECT_FALSE(restores(unknown_tag, st));

    EngineState in_flight_and_ready = engine;
    in_flight_and_ready.slabPackets.front().tag = st.ready.front().second;
    EXPECT_FALSE(restores(in_flight_and_ready, st));

    TraceReplayState counter_too_high = st;
    const auto waiting =
        std::find_if(counter_too_high.pendingDeps.begin(),
                     counter_too_high.pendingDeps.end(),
                     [](std::uint32_t n) { return n > 0; });
    ++*waiting;
    EXPECT_FALSE(restores(engine, counter_too_high));

    TraceReplayState counters_zeroed = st;
    std::fill(counters_zeroed.pendingDeps.begin(),
              counters_zeroed.pendingDeps.end(), 0u);
    EXPECT_FALSE(restores(engine, counters_zeroed));

    TraceReplayState delivered_too_many = st;
    ++delivered_too_many.deliveredCount;
    EXPECT_FALSE(restores(engine, delivered_too_many));

    // A ready message moved into its own source's FIFO is still one
    // undelivered set; moved into another source's, it is not.
    TraceReplayState queued_at_home = st;
    const std::uint64_t moved = queued_at_home.ready.back().second;
    queued_at_home.ready.pop_back();
    TraceReplayState queued_elsewhere = queued_at_home;
    const NodeId home = trace.messages[moved].src;
    queued_at_home.sourceQueues[home].push_back(moved);
    queued_elsewhere.sourceQueues[(home + 1) % cfg.pes()].push_back(moved);
    EXPECT_TRUE(restores(engine, queued_at_home));
    EXPECT_FALSE(restores(engine, queued_elsewhere));

    // A device that cannot report its packets restores only while idle.
    MultiChannelNoc multi(cfg, 2);
    TraceReplayer on_multi(multi, trace);
    TraceReplayState start;
    ASSERT_TRUE(on_multi.captureState(start));
    EXPECT_TRUE(on_multi.restoreState(start));
    on_multi.tick();
    multi.step();
    ASSERT_FALSE(multi.quiescent());
    EXPECT_FALSE(on_multi.restoreState(start));
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
        Trace u;
        ASSERT_EQ(Trace::load(ss, u), "") << t.name;
        ASSERT_EQ(u.messages.size(), t.messages.size()) << t.name;
        for (std::size_t i = 0; i < t.messages.size(); ++i) {
            EXPECT_EQ(u.messages[i].src, t.messages[i].src);
            EXPECT_EQ(u.messages[i].dst, t.messages[i].dst);
            EXPECT_EQ(u.messages[i].earliest, t.messages[i].earliest);
            EXPECT_TRUE(std::ranges::equal(u.depsOf(i), t.depsOf(i)));
        }
    }
}

} // namespace
} // namespace fasttrack
