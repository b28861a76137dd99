/**
 * @file
 * google-benchmark microbenchmarks of the simulator core itself
 * (not a paper artifact): router-evaluation throughput and end-to-end
 * simulated cycles per second for representative configurations.
 */

#include <benchmark/benchmark.h>

#include <array>
#include <chrono>
#include <vector>

#include "common/rng.hpp"
#include "noc/network.hpp"
#include "noc/router.hpp"
#include "sim/simulation.hpp"
#include "sim/sweep_cache.hpp"
#include "sim/telemetry_session.hpp"
#include "workloads/dataflow.hpp"
#include "workloads/spmv.hpp"

using namespace fasttrack;

namespace {

void
BM_NetworkStep(benchmark::State &state)
{
    const auto n = static_cast<std::uint32_t>(state.range(0));
    const bool ft = state.range(1) != 0;
    const NocConfig cfg =
        ft ? NocConfig::fastTrack(n, 2, 1) : NocConfig::hoplite(n);
    Network noc(cfg);
    SyntheticWorkload workload;
    workload.pattern = TrafficPattern::random;
    workload.injectionRate = 1.0;
    workload.packetsPerPe = 0xffffffffu; // endless generation
    SyntheticInjector injector(noc, workload);

    for (auto _ : state) {
        injector.tick();
        noc.step();
    }
    state.SetItemsProcessed(state.iterations() * cfg.pes());
    state.counters["routers"] = cfg.pes();
}

/**
 * Arbitration alone: a fixed, seeded stream of router inputs replayed
 * through Router::routeCore with a sink that only counts. Each record
 * names a router of an 8x8 NoC (Hoplite for range(0) = 0, FT(64,2,1)
 * otherwise), loads each input port that router has with probability
 * 1/2, each with its own destination, and offers a PE packet with
 * probability 1/2. routeCore bumps the records' hop and deflection
 * counters in place on every pass; no decision reads them.
 */
void
BM_RouteCore(benchmark::State &state)
{
    const NocConfig cfg = state.range(0) != 0
                              ? NocConfig::fastTrack(8, 2, 1)
                              : NocConfig::hoplite(8);
    const Topology topo(cfg);
    const std::uint32_t nodes = cfg.pes();
    std::vector<Router> routers;
    for (NodeId id = 0; id < nodes; ++id)
        routers.emplace_back(topo, toCoord(id, cfg.n));

    struct Record
    {
        std::uint32_t router = 0;
        std::uint8_t mask = 0;
        bool offered = false;
        std::array<Packet, 4> in{};
        Packet offer;
    };
    std::vector<Record> stream(4096);
    Rng rng(42);
    for (Record &r : stream) {
        r.router = static_cast<std::uint32_t>(rng.nextBelow(nodes));
        const Coord pos = toCoord(r.router, cfg.n);
        for (std::uint32_t port = 0; port < 4; ++port) {
            const auto in = static_cast<InPort>(port);
            if ((in == InPort::wEx && !topo.hasExpressX(pos.x)) ||
                (in == InPort::nEx && !topo.hasExpressY(pos.y)) ||
                !rng.nextBool(0.5)) {
                continue;
            }
            r.mask = static_cast<std::uint8_t>(r.mask | (1u << port));
            r.in[port].dst = static_cast<NodeId>(rng.nextBelow(nodes));
        }
        if (rng.nextBool(0.5)) {
            r.offered = true;
            r.offer.src = r.router;
            r.offer.dst = static_cast<NodeId>(
                (r.router + 1 + rng.nextBelow(nodes - 1)) % nodes);
        }
    }

    struct CountingSink
    {
        std::uint64_t forwards = 0;
        std::uint64_t deliveries = 0;
        void forward(OutPort, const Packet &) { ++forwards; }
        void deliver(InPort, const Packet &) { ++deliveries; }
    } sink;
    NocStats stats;
    std::uint64_t accepted = 0;
    for (auto _ : state) {
        for (Record &r : stream) {
            accepted += routers[r.router].routeCore(
                r.in.data(), r.mask, r.offered ? &r.offer : nullptr, 0,
                stats, [](const Packet &) { return true; }, sink);
        }
        // The pass writes the records' and the stats' counters.
        benchmark::DoNotOptimize(stream.data());
        benchmark::DoNotOptimize(stats);
        benchmark::ClobberMemory();
    }
    benchmark::DoNotOptimize(accepted);
    benchmark::DoNotOptimize(sink.forwards);
    benchmark::DoNotOptimize(sink.deliveries);
    state.SetItemsProcessed(state.iterations() *
                            static_cast<std::int64_t>(stream.size()));
}

/**
 * The injector in the regime of the synthetic figure sweeps: each
 * iteration runs a fresh 8x8 Hoplite and injector with the paper's
 * 1024-packet budget per PE to done(), drain phase included.
 * BM_NetworkStep's endless rate-1.0 backlogs never drain, so they
 * never show the per-packet cost of a source queue that empties and
 * refills — what a low injection rate does on almost every packet.
 * tick_ns_per_node_cycle times tick() alone (one clock-read pair per
 * cycle included) over all nodes and cycles run.
 */
void
BM_InjectorTick(benchmark::State &state)
{
    const NocConfig cfg = NocConfig::hoplite(8);
    SyntheticWorkload workload;
    workload.pattern = state.range(0) != 0 ? TrafficPattern::bitComplement
                                           : TrafficPattern::random;
    workload.injectionRate = static_cast<double>(state.range(1)) / 100.0;
    workload.packetsPerPe = 1024;

    std::chrono::steady_clock::duration ticking{};
    std::uint64_t node_cycles = 0;
    for (auto _ : state) {
        Network noc(cfg);
        SyntheticInjector injector(noc, workload);
        while (!injector.done()) {
            const auto start = std::chrono::steady_clock::now();
            injector.tick();
            ticking += std::chrono::steady_clock::now() - start;
            noc.step();
        }
        node_cycles += noc.now() * cfg.pes();
        benchmark::DoNotOptimize(noc.statsSnapshot().delivered);
    }
    const double tick_ns = static_cast<double>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(ticking)
            .count());
    state.counters["tick_ns_per_node_cycle"] =
        node_cycles > 0 ? tick_ns / static_cast<double>(node_cycles) : 0.0;
    state.SetItemsProcessed(static_cast<std::int64_t>(node_cycles));
}

/**
 * Same stepping loop with an installed telemetry sink: exercises the
 * HasTelem stepImpl instantiation (ring pushes + counter bumps per
 * event). Deliberately *not* named under the BM_NetworkStep prefix:
 * scripts/bench_record.py records that prefix as the no-hook perf
 * baseline, which this flavor must not pollute. Compare against
 * BM_NetworkStep/16/1 to measure telemetry overhead; the no-sink
 * number itself must stay put (docs/observability.md).
 */
void
BM_TelemetryStep(benchmark::State &state)
{
    const auto n = static_cast<std::uint32_t>(state.range(0));
    telemetry::TelemetryConfig tcfg; // in-memory, no artifact export
    const bool trace_events = state.range(1) != 0;
    tcfg.traceEvents = trace_events;
    TelemetrySession session(std::move(tcfg));

    Network noc(NocConfig::fastTrack(n, 2, 1));
    SyntheticWorkload workload;
    workload.pattern = TrafficPattern::random;
    workload.injectionRate = 1.0;
    workload.packetsPerPe = 0xffffffffu; // endless generation
    SyntheticInjector injector(noc, workload);

    for (auto _ : state) {
        injector.tick();
        noc.step();
    }
    state.SetItemsProcessed(state.iterations() * noc.config().pes());
    state.counters["routers"] = noc.config().pes();
    state.counters["dropped"] = static_cast<double>(
        session.sink().totalDropped());
}

Trace
luBenchTrace()
{
    return dataflowTrace(
        sparseLuDag(LuDagParams{"bench", 4096, 12.0, 1.8, 3, 77}), 8);
}

Trace
spmvBenchTrace()
{
    MatrixParams params;
    params.rows = 16384;
    params.seed = 77;
    return spmvTrace(generateMatrix(params), 8);
}

/**
 * One replay of a trace on FT(64,2,1) per iteration, construction
 * included. The two traces bound the replayer's regimes: the LU
 * dataflow trace releases almost every message on a delivery, the
 * SpMV trace has no dependencies at all, so every message is ready
 * at cycle 0.
 */
void
BM_TraceReplay(benchmark::State &state, Trace (*make)())
{
    const Trace trace = make();
    const NocConfig config = NocConfig::fastTrack(8, 2, 1);
    for (auto _ : state) {
        const RunResult r = runSim({.config = &config,
                                    .trace = &trace,
                                    .sim = {.maxCycles = 10'000'000}});
        benchmark::DoNotOptimize(r.trace.completion);
    }
    state.SetItemsProcessed(state.iterations() * trace.messages.size());
}

/** One build of a trace per iteration, its workload model included:
 *  the generator layer behind a trace replay's set-up. */
void
BM_TraceBuild(benchmark::State &state, Trace (*make)())
{
    std::size_t messages = 0;
    for (auto _ : state) {
        const Trace trace = make();
        messages = trace.messages.size();
        benchmark::DoNotOptimize(trace.messages.data());
        benchmark::ClobberMemory();
    }
    state.SetItemsProcessed(state.iterations() * messages);
}

/**
 * The sweep-cache codec on the payload shape of the largest sweep
 * entries: one saturated 8x8 FT(64,2,1) RANDOM result (rate 1.0, the
 * paper's 1024 packets per PE), encoded and decoded back per
 * iteration. A disk hit, a remote answer and a store each pay one
 * side of it.
 */
void
BM_SynthResultCodec(benchmark::State &state)
{
    const NocConfig cfg = NocConfig::fastTrack(8, 2, 1);
    SyntheticWorkload workload;
    workload.pattern = TrafficPattern::random;
    workload.injectionRate = 1.0;
    workload.packetsPerPe = 1024;
    const SynthResult result =
        runSim({.config = &cfg, .workload = &workload}).synth;

    std::size_t bytes = 0;
    for (auto _ : state) {
        const std::vector<std::uint8_t> payload = encodeSynthResult(result);
        SynthResult decoded;
        if (!decodeSynthResult(payload, decoded))
            state.SkipWithError("payload failed to decode");
        bytes = payload.size();
        benchmark::DoNotOptimize(decoded.stats.delivered);
    }
    state.SetBytesProcessed(state.iterations() *
                            static_cast<std::int64_t>(bytes));
    state.counters["payload_bytes"] = static_cast<double>(bytes);
}

} // namespace

BENCHMARK(BM_NetworkStep)
    ->Args({4, 0})
    ->Args({4, 1})
    ->Args({8, 0})
    ->Args({8, 1})
    ->Args({16, 0})
    ->Args({16, 1})
    ->Args({32, 1});
// {FastTrack}: Hoplite 8x8 and FT(64,2,1).
BENCHMARK(BM_RouteCore)->Arg(0)->Arg(1);
// {bitcompl, injection rate in percent}: RANDOM and BITCOMPL at a
// low, a mid and the saturating rate of the paper's rate grid.
BENCHMARK(BM_InjectorTick)
    ->ArgNames({"bitcompl", "rate_pct"})
    ->ArgsProduct({{0, 1}, {5, 30, 100}})
    ->Unit(benchmark::kMillisecond);
// {n, traceEvents}: counters-only vs full event tracing.
BENCHMARK(BM_TelemetryStep)->Args({16, 0})->Args({16, 1});
BENCHMARK_CAPTURE(BM_TraceReplay, lu, &luBenchTrace)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_TraceReplay, spmv, &spmvBenchTrace)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_TraceBuild, spmv, &spmvBenchTrace)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_TraceBuild, lu, &luBenchTrace)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_SynthResultCodec)->Unit(benchmark::kMicrosecond);
