/**
 * @file
 * Telemetry subsystem tests: ring semantics under overflow, the
 * no-perturbation guarantee (identical stats with and without a sink),
 * registry-vs-NocStats agreement on a pinned config, multi-threaded
 * trace export, exporter output structure, the port-name pinning
 * against noc/routing.hpp, the checker cross-validation, and the hop
 * events that let the sink follow one packet's journey.
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <vector>

#include <unistd.h>

#include "check/invariants.hpp"
#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "noc/network.hpp"
#include "noc/routing.hpp"
#include "sim/simulation.hpp"
#include "sim/telemetry_session.hpp"
#include "telemetry/exporters.hpp"
#include "telemetry/ring_buffer.hpp"
#include "workloads/dataflow.hpp"

namespace fasttrack {
namespace {

namespace fs = std::filesystem;

SyntheticWorkload
pinnedWorkload()
{
    SyntheticWorkload w;
    w.pattern = TrafficPattern::random;
    w.injectionRate = 0.3;
    w.packetsPerPe = 64;
    w.seed = 7;
    return w;
}

/** Fresh per-test artifact directory under the gtest temp root,
 *  named for this process so two ft_tests runs side by side never
 *  share one. */
fs::path
artifactDir(const std::string &name)
{
    const fs::path dir =
        fs::path(::testing::TempDir()) /
        ("ft_telemetry_" + name + "_" + std::to_string(::getpid()));
    fs::remove_all(dir);
    return dir;
}

TEST(SpscRing, WrapsAroundAndPreservesFifoOrder)
{
    telemetry::SpscRing<telemetry::TraceEvent> ring(8);
    ASSERT_EQ(ring.capacity(), 8u);
    std::vector<telemetry::TraceEvent> out;

    // Several fill/drain rounds exercise index wraparound far past
    // one capacity's worth of slots.
    std::uint64_t next = 0;
    for (int round = 0; round < 5; ++round) {
        for (int i = 0; i < 6; ++i) {
            telemetry::TraceEvent e;
            e.packet = next++;
            ASSERT_TRUE(ring.tryPush(e));
        }
        out.clear();
        ASSERT_EQ(ring.drain(out), 6u);
        for (std::size_t i = 1; i < out.size(); ++i)
            EXPECT_EQ(out[i].packet, out[i - 1].packet + 1);
    }
    EXPECT_EQ(ring.dropped(), 0u);
}

TEST(SpscRing, CountsDropsExactlyUnderForcedOverflow)
{
    telemetry::SpscRing<telemetry::TraceEvent> ring(8);
    telemetry::TraceEvent e;
    for (std::uint64_t i = 0; i < 8; ++i) {
        e.packet = i;
        ASSERT_TRUE(ring.tryPush(e));
    }
    for (std::uint64_t i = 8; i < 21; ++i) {
        e.packet = i;
        EXPECT_FALSE(ring.tryPush(e)); // full: drop-newest
    }
    EXPECT_EQ(ring.dropped(), 13u);
    EXPECT_EQ(ring.size(), 8u);

    // The buffered (oldest) records survive intact.
    std::vector<telemetry::TraceEvent> out;
    ASSERT_EQ(ring.drain(out), 8u);
    for (std::uint64_t i = 0; i < 8; ++i)
        EXPECT_EQ(out[i].packet, i);

    // After a drain the producer can push again; drops don't reset.
    EXPECT_TRUE(ring.tryPush(e));
    EXPECT_EQ(ring.dropped(), 13u);
}

TEST(Telemetry, SinkDoesNotPerturbSimulationResults)
{
    const NocConfig cfg = NocConfig::fastTrack(8, 2, 2);
    const SyntheticWorkload w = pinnedWorkload();

    const SynthResult plain = runSynthetic(cfg, 1, w);

    SynthResult observed;
    {
        TelemetrySession session{telemetry::TelemetryConfig{}};
        const SimConfig sim{.telemetry = &session};
        observed = runSynthetic(cfg, 1, w, sim);
    }

    // Bit-identical simulation outcome: telemetry observes, never
    // steers (the golden-hash test pins the sink-free path; this pins
    // the installed-sink instantiation against it).
    EXPECT_EQ(plain.cycles, observed.cycles);
    EXPECT_EQ(plain.stats.injected, observed.stats.injected);
    EXPECT_EQ(plain.stats.delivered, observed.stats.delivered);
    EXPECT_EQ(plain.stats.shortHopTraversals,
              observed.stats.shortHopTraversals);
    EXPECT_EQ(plain.stats.expressHopTraversals,
              observed.stats.expressHopTraversals);
    EXPECT_EQ(plain.stats.deflectionsByPort,
              observed.stats.deflectionsByPort);
    EXPECT_EQ(plain.stats.totalLatency.bins(),
              observed.stats.totalLatency.bins());
    EXPECT_EQ(plain.stats.networkLatency.bins(),
              observed.stats.networkLatency.bins());
}

TEST(Telemetry, LastHopEventCarriesTheFinalDeflectionCount)
{
    // A hop event's aux is the packet's deflections so far, so the last
    // hop before an eject holds the count the client sees: the sink
    // alone can follow a journey (packet_tracer).
    TelemetrySession session{telemetry::TelemetryConfig{}};
    telemetry::ThreadLog &log = session.sink().local();
    Network noc(NocConfig::fastTrack(8, 2, 1));
    std::map<std::uint64_t, std::uint16_t> delivered;
    noc.setDeliverCallback([&delivered](const Packet &p, Cycle) {
        delivered[p.id] = p.deflections;
    });

    std::map<std::uint64_t, std::uint16_t> last_hop;
    std::set<std::uint64_t> ejected;
    std::vector<telemetry::TraceEvent> events;
    Rng rng(5);
    std::uint64_t offered = 0;
    const std::uint32_t pes = noc.config().pes();
    for (int cycle = 0; cycle < 10'000 && delivered.size() < 2'000;
         ++cycle) {
        for (NodeId src = 0; src < pes && offered < 2'000; ++src) {
            if (noc.hasPendingOffer(src) || !rng.nextBool(0.4))
                continue;
            Packet p;
            p.id = ++offered;
            p.src = src;
            p.dst = static_cast<NodeId>(rng.nextBelow(pes - 1));
            if (p.dst >= src)
                ++p.dst;
            p.created = noc.now();
            noc.offer(p);
        }
        noc.step();
        events.clear();
        log.ring().drain(events);
        for (const telemetry::TraceEvent &e : events) {
            if (e.kind == telemetry::EventKind::route ||
                e.kind == telemetry::EventKind::expressHop) {
                EXPECT_FALSE(ejected.contains(e.packet)) << e.packet;
                last_hop[e.packet] = e.aux;
            } else if (e.kind == telemetry::EventKind::eject) {
                ejected.insert(e.packet);
            }
        }
    }

    ASSERT_EQ(delivered.size(), 2'000u);
    EXPECT_EQ(ejected.size(), delivered.size());
    EXPECT_EQ(session.sink().totalDropped(), 0u);
    std::size_t deflected = 0;
    for (const auto &[id, deflections] : delivered) {
        ASSERT_TRUE(last_hop.contains(id)) << id;
        EXPECT_EQ(last_hop[id], deflections) << id;
        deflected += deflections > 0;
    }
    EXPECT_GT(deflected, 0u); // the load makes some packets deflect
}

TEST(Telemetry, RegistryAgreesWithNocStatsOnPinnedConfig)
{
    // The bench_fig18 refactor sources link usage from the registry;
    // this pins the two accounting paths (sink event counters vs the
    // engine's NocStats) to each other on a fixed config.
    TelemetrySession session{telemetry::TelemetryConfig{}};
    const SimConfig sim{.telemetry = &session};
    const SynthResult r =
        runSynthetic(NocConfig::fastTrack(8, 2, 2), 1, pinnedWorkload(),
                     sim);

    const telemetry::MetricsRegistry &m = session.metrics();
    EXPECT_EQ(m.counterValue("events.inject"), r.stats.injected);
    EXPECT_EQ(m.counterValue("events.eject"), r.stats.delivered);
    EXPECT_EQ(m.counterValue("events.route"),
              r.stats.shortHopTraversals);
    EXPECT_EQ(m.counterValue("events.express_hop"),
              r.stats.expressHopTraversals);
    EXPECT_EQ(m.counterValue("net.injected"), r.stats.injected);
    EXPECT_EQ(m.counterValue("net.delivered"), r.stats.delivered);

    // The sink's per-link counters sum to the same traversal total.
    std::uint64_t link_total = 0;
    for (std::uint64_t c : session.sink().totalLinkCounts())
        link_total += c;
    EXPECT_EQ(link_total, r.stats.shortHopTraversals +
                              r.stats.expressHopTraversals);
}

TEST(Telemetry, MultiThreadedSweepWritesOneTraceFilePerThread)
{
    const fs::path dir = artifactDir("sweep");
    std::vector<std::string> traces;
    {
        telemetry::TelemetryConfig tcfg;
        tcfg.dir = dir.string();
        tcfg.ringCapacity = 1 << 12;
        TelemetrySession session(std::move(tcfg));

        // Several independent runs across 2 workers, all emitting
        // into the one installed sink (run under TSan in CI).
        const std::vector<int> seeds{1, 2, 3, 4};
        const SimConfig sim{.telemetry = &session};
        const auto delivered = parallelMap(
            seeds,
            [&](int seed) {
                SyntheticWorkload w = pinnedWorkload();
                w.seed = static_cast<std::uint64_t>(seed);
                return runSynthetic(NocConfig::fastTrack(4, 2, 1), 1, w,
                                    sim)
                    .stats.delivered;
            },
            2);
        for (std::uint64_t d : delivered)
            EXPECT_GT(d, 0u);

        const std::size_t threads = session.sink().threadCount();
        EXPECT_GE(threads, 1u);
        traces = session.finish();
        std::size_t trace_files = 0;
        for (const std::string &p : traces)
            if (p.find("trace_t") != std::string::npos)
                ++trace_files;
        EXPECT_EQ(trace_files, threads);
    }
    for (const std::string &p : traces)
        EXPECT_TRUE(fs::exists(p)) << p;
    fs::remove_all(dir);
}

TEST(Telemetry, ChromeTraceExportIsStructurallyValidJson)
{
    std::vector<telemetry::TraceEvent> events;
    telemetry::TraceEvent e;
    e.cycle = 5;
    e.packet = 9;
    e.node = 3;
    e.kind = telemetry::EventKind::route;
    e.port = static_cast<std::uint8_t>(OutPort::eSh);
    events.push_back(e);
    e.kind = telemetry::EventKind::eject;
    e.port = telemetry::kNoPort;
    e.aux = 17;
    events.push_back(e);

    std::ostringstream os;
    telemetry::writeChromeTrace(os, events, 0, 4);
    const std::string json = os.str();
    EXPECT_NE(json.find("\"traceEvents\":["), std::string::npos);
    EXPECT_NE(json.find("\"name\":\"route\""), std::string::npos);
    EXPECT_NE(json.find("\"port\":\"eSh\""), std::string::npos);
    EXPECT_NE(json.find("\"name\":\"eject\""), std::string::npos);
    EXPECT_NE(json.find("\"aux\":17"), std::string::npos);
    EXPECT_NE(json.find("\"dropped_events\":4"), std::string::npos);
    // Balanced braces/brackets outside strings = parseable structure
    // (CI additionally json.load()s a real exported file).
    int depth = 0;
    for (char c : json) {
        if (c == '{' || c == '[')
            ++depth;
        if (c == '}' || c == ']')
            --depth;
        ASSERT_GE(depth, 0);
    }
    EXPECT_EQ(depth, 0);
}

TEST(Telemetry, HeatmapCsvCoversEveryLinkOfTheTorus)
{
    TelemetrySession session{telemetry::TelemetryConfig{}};
    const SimConfig sim{.telemetry = &session};
    runSynthetic(NocConfig::fastTrack(4, 2, 1), 1, pinnedWorkload(),
                 sim);

    std::ostringstream os;
    telemetry::writeLinkHeatmapCsv(os, session.sink().totalLinkCounts(),
                                   4);
    std::istringstream is(os.str());
    std::string line;
    ASSERT_TRUE(std::getline(is, line));
    EXPECT_EQ(line, "node,x,y,port,traversals");
    std::size_t rows = 0;
    std::uint64_t total = 0;
    while (std::getline(is, line)) {
        ++rows;
        total += std::stoull(line.substr(line.rfind(',') + 1));
    }
    EXPECT_EQ(rows, 4u * 4u * 4u); // 16 routers x 4 output links
    EXPECT_GT(total, 0u);
}

TEST(Telemetry, PortNamesPinnedToRoutingEnums)
{
    // events.hpp ships raw port bytes; the exporter name tables must
    // track noc/routing.hpp's enum order.
    EXPECT_STREQ(telemetry::outPortName(
                     static_cast<std::uint8_t>(OutPort::eEx)), "eEx");
    EXPECT_STREQ(telemetry::outPortName(
                     static_cast<std::uint8_t>(OutPort::eSh)), "eSh");
    EXPECT_STREQ(telemetry::outPortName(
                     static_cast<std::uint8_t>(OutPort::sEx)), "sEx");
    EXPECT_STREQ(telemetry::outPortName(
                     static_cast<std::uint8_t>(OutPort::sSh)), "sSh");
    EXPECT_STREQ(telemetry::outPortName(telemetry::kNoPort), "none");
    EXPECT_STREQ(telemetry::inPortName(
                     static_cast<std::uint8_t>(InPort::wEx)), "wEx");
    EXPECT_STREQ(telemetry::inPortName(
                     static_cast<std::uint8_t>(InPort::nEx)), "nEx");
    EXPECT_STREQ(telemetry::inPortName(
                     static_cast<std::uint8_t>(InPort::wSh)), "wSh");
    EXPECT_STREQ(telemetry::inPortName(
                     static_cast<std::uint8_t>(InPort::nSh)), "nSh");
    EXPECT_STREQ(telemetry::inPortName(
                     static_cast<std::uint8_t>(InPort::pe)), "pe");
}

TEST(Telemetry, CheckerCrossValidationFlagsCounterMismatch)
{
    check::Geometry geo;
    geo.n = 4;
    check::InvariantChecker checker(geo, check::FailMode::record);

    // A geometrically consistent journey on the 4x4 torus: one short
    // east hop from node 0 lands at node 1, the destination.
    Packet p;
    p.id = 1;
    p.src = 0;
    p.dst = 1;
    checker.onOffer(p, 0);
    checker.onInject(p, 0, 0);
    checker.onTraversal(p, 0, OutPort::eSh, 0);
    checker.onDelivery(p, 1, 1);

    // Matching telemetry counts: no violation.
    checker.verifyTelemetryCounts(1, 1, 4);
    EXPECT_TRUE(checker.violations().empty());

    // A lost eject event and a phantom inject both fail conservation.
    checker.verifyTelemetryCounts(1, 0, 5);
    ASSERT_EQ(checker.violations().size(), 1u);
    EXPECT_EQ(checker.violations()[0].kind,
              check::Violation::conservation);
    checker.verifyTelemetryCounts(2, 1, 6);
    ASSERT_EQ(checker.violations().size(), 2u);
    EXPECT_EQ(checker.violations()[1].kind,
              check::Violation::conservation);
}

TEST(Telemetry, SessionExportsMetricsTimeSeries)
{
    // Synthetic injection and trace replay share one driver loop, so
    // both sample epochs on the same schedule.
    const NocConfig config = NocConfig::fastTrack(4, 2, 1);
    const Trace trace = dataflowTrace(
        sparseLuDag({"telemetry_lu", 200, 8.0, 1.8, 3, 13}), 4);
    for (const bool replay : {false, true}) {
        const fs::path dir = artifactDir(replay ? "metrics_trace"
                                                : "metrics");
        std::vector<std::string> artifacts;
        {
            telemetry::TelemetryConfig tcfg;
            tcfg.dir = dir.string();
            tcfg.epoch = 64; // small epoch: several rows
            TelemetrySession session(std::move(tcfg));
            const SimConfig sim{.telemetry = &session};
            if (replay)
                runTrace(config, 1, trace, sim);
            else
                runSynthetic(config, 1, pinnedWorkload(), sim);
            EXPECT_GE(session.metrics().epochs().size(), 2u) << replay;
            artifacts = session.finish();
            // finish() is idempotent.
            EXPECT_EQ(artifacts, session.finish());
        }
        bool found_metrics = false;
        for (const std::string &p : artifacts) {
            if (p.find("metrics.csv") == std::string::npos)
                continue;
            found_metrics = true;
            std::ifstream is(p);
            std::string header;
            ASSERT_TRUE(std::getline(is, header));
            EXPECT_NE(header.find("link.utilization"), std::string::npos);
            EXPECT_NE(header.find("injector.backlog"), std::string::npos);
            std::string row;
            EXPECT_TRUE(std::getline(is, row)); // at least one epoch row
        }
        EXPECT_TRUE(found_metrics) << replay;
        fs::remove_all(dir);
    }
}

} // namespace
} // namespace fasttrack
