#include "grid.hpp"

#include <algorithm>

#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "sim/sweep_cache.hpp"
#include "workloads/dataflow.hpp"
#include "workloads/spmv.hpp"

namespace perfbench {

namespace {

SynthCall
makeCall(SynthCall::Kind kind, const NocUnderTest &nut,
         TrafficPattern pattern, std::vector<double> rates,
         std::uint32_t packets, std::uint64_t seed)
{
    SynthCall call;
    call.kind = kind;
    call.label = nut.label + " " + std::string(toString(pattern));
    call.nut = nut;
    call.pattern = pattern;
    call.rates = std::move(rates);
    call.packetsPerPe = packets;
    call.seed = seed;
    return call;
}

/** FastTrack configurations the Fig 15 benches try at side @p n. */
std::vector<NocConfig>
replayConfigs(std::uint32_t n)
{
    std::vector<NocConfig> configs{NocConfig::hoplite(n)};
    if (n < 4) {
        configs.push_back(NocConfig::fastTrack(n, 1, 1));
        return configs;
    }
    configs.push_back(NocConfig::fastTrack(n, 2, 1));
    configs.push_back(NocConfig::fastTrack(n, 2, 2));
    if (n >= 8)
        configs.push_back(NocConfig::fastTrack(n, 3, 1));
    if (n >= 16)
        configs.push_back(NocConfig::fastTrack(n, 4, 1));
    return configs;
}

LuDagParams
luParams(const LuDagParams &params, std::uint64_t seed)
{
    LuDagParams p = params;
    p.seed = splitmix64(params.seed ^ seed);
    return p;
}

} // namespace

std::vector<SynthCall>
synthGrid(std::uint64_t seed, bool short_grid)
{
    using Kind = SynthCall::Kind;
    // bench_all's full and --smoke configurations.
    std::vector<TrafficPattern> patterns(std::begin(kAllPatterns),
                                         std::end(kAllPatterns));
    std::vector<double> rates = injectionRateGrid();
    std::uint32_t packets = 1024;
    std::vector<std::uint32_t> vary_d_sides{4, 8, 16};
    double hist_rate = 0.08;
    if (short_grid) {
        patterns = {TrafficPattern::random, TrafficPattern::transpose};
        rates = {0.05, 0.20, 0.50};
        packets = 64;
        vary_d_sides = {4, 8};
        hist_rate = 0.05;
    }

    std::vector<SynthCall> grid;
    // Figs 11+12: rate sweeps of the standard lineup.
    for (TrafficPattern pattern : patterns)
        for (const NocUnderTest &nut : standardLineup(8))
            grid.push_back(
                makeCall(Kind::sweep, nut, pattern, rates, packets, seed));
    // Fig 13: the iso-wiring lineup under RANDOM.
    for (const NocUnderTest &nut : isoWiringLineup(8))
        grid.push_back(makeCall(Kind::sweep, nut, TrafficPattern::random,
                                rates, packets, seed));
    // Fig 14: saturation of the iso-wiring lineup.
    for (TrafficPattern pattern : patterns)
        for (const NocUnderTest &nut : isoWiringLineup(8))
            grid.push_back(makeCall(Kind::saturation, nut, pattern, {1.0},
                                    packets, seed));
    // Fig 16: latency summary at low injection.
    for (const NocUnderTest &nut : standardLineup(8))
        grid.push_back(makeCall(Kind::single, nut, TrafficPattern::random,
                                {hist_rate}, packets, seed));
    // Fig 17: vary D (R=1 and R=D) on every side.
    const std::uint32_t max_side =
        *std::max_element(vary_d_sides.begin(), vary_d_sides.end());
    for (bool depopulated : {false, true}) {
        for (std::uint32_t d = 0; d <= max_side / 2; ++d) {
            for (std::uint32_t n : vary_d_sides) {
                if (d > n / 2 || (depopulated && d > 1 && n % d != 0))
                    continue;
                NocUnderTest nut;
                nut.config = d == 0 ? NocConfig::hoplite(n)
                                    : NocConfig::fastTrack(
                                          n, d, depopulated ? d : 1);
                nut.label = nut.config.describe();
                grid.push_back(makeCall(Kind::single, nut,
                                        TrafficPattern::random, {0.5},
                                        n >= 16 ? packets / 4 : packets,
                                        seed));
            }
        }
    }
    return grid;
}

std::vector<SynthCall>
remoteGrid(std::uint64_t seed)
{
    std::vector<SynthCall> grid;
    for (TrafficPattern pattern :
         {TrafficPattern::random, TrafficPattern::transpose})
        for (const NocUnderTest &nut : standardLineup(8))
            grid.push_back(makeCall(SynthCall::Kind::sweep, nut, pattern,
                                    {0.05, 0.20, 0.50}, 64, seed));
    return grid;
}

std::vector<SyntheticWorkload>
callWorkloads(const SynthCall &call)
{
    std::vector<SyntheticWorkload> out(call.rates.size());
    for (std::size_t i = 0; i < out.size(); ++i) {
        SyntheticWorkload &w = out[i];
        w.pattern = call.pattern;
        w.injectionRate = call.rates[i];
        w.packetsPerPe = call.packetsPerPe;
        w.seed = call.kind == SynthCall::Kind::sweep
                     ? splitmix64(call.seed ^ static_cast<std::uint64_t>(i))
                     : call.seed;
    }
    return out;
}

std::vector<SynthResult>
runCall(const SynthCall &call)
{
    switch (call.kind) {
      case SynthCall::Kind::sweep: {
        std::vector<SynthResult> out;
        for (SweepPoint &p :
             injectionSweep(call.nut, call.pattern, call.rates,
                            call.packetsPerPe, call.seed))
            out.push_back(std::move(p.result));
        return out;
      }
      case SynthCall::Kind::saturation:
        return {saturationRun(call.nut, call.pattern, call.packetsPerPe,
                              call.seed)};
      case SynthCall::Kind::single:
        break;
    }
    return {cachedRunSynthetic(call.nut.config, call.nut.channels,
                               callWorkloads(call).front())};
}

std::vector<SynthPoint>
gridPoints(const std::vector<SynthCall> &grid)
{
    std::vector<SynthPoint> out;
    for (std::size_t c = 0; c < grid.size(); ++c)
        for (const SyntheticWorkload &w : callWorkloads(grid[c]))
            out.push_back({c, grid[c].nut.config, grid[c].nut.channels, w});
    return out;
}

std::vector<SynthResult>
runGrid(const std::vector<SynthCall> &grid)
{
    std::vector<SynthResult> out;
    for (const SynthCall &call : grid)
        for (SynthResult &r : runCall(call))
            out.push_back(std::move(r));
    return out;
}

std::vector<TraceCase>
traceSet(std::uint64_t seed, bool short_set)
{
    const std::vector<std::uint32_t> spmv_sides =
        short_set ? std::vector<std::uint32_t>{2, 4}
                  : std::vector<std::uint32_t>{2, 4, 8, 16};
    const std::vector<std::uint32_t> lu_sides =
        short_set ? std::vector<std::uint32_t>{4}
                  : std::vector<std::uint32_t>{4, 8, 16};
    const std::size_t keep = short_set ? 2 : SIZE_MAX;

    std::vector<TraceCase> out;
    const auto &matrices = spmvCatalog();
    for (std::size_t i = 0; i < matrices.size() && i < keep; ++i) {
        MatrixParams p = matrices[i];
        p.seed = splitmix64(p.seed ^ seed);
        const SparseMatrix matrix = generateMatrix(p);
        for (std::uint32_t n : spmv_sides)
            out.push_back({spmvTrace(matrix, n), replayConfigs(n)});
    }
    const auto &dags = luCatalog();
    for (std::size_t i = 0; i < dags.size() && i < keep; ++i) {
        const DataflowDag dag = sparseLuDag(luParams(dags[i], seed));
        for (std::uint32_t n : lu_sides)
            out.push_back({dataflowTrace(dag, n), replayConfigs(n)});
    }
    return out;
}

TraceCase
shardedLuCase(std::uint64_t seed)
{
    const auto &dags = luCatalog();
    const auto smallest = std::min_element(
        dags.begin(), dags.end(),
        [](const LuDagParams &a, const LuDagParams &b) {
            return a.nodes < b.nodes;
        });
    const DataflowDag dag = sparseLuDag(luParams(*smallest, seed));
    return {dataflowTrace(dag, 8), {NocConfig::fastTrack(8, 2, 1)}};
}

TraceResult
replayOnce(const NocConfig &config, const Trace &trace)
{
    return runSim({.config = &config,
                   .trace = &trace,
                   .sim = {.maxCycles = kReplayMaxCycles}})
        .trace;
}

std::vector<TraceResult>
runTraceCase(const TraceCase &tc)
{
    return parallelMap(
        tc.configs,
        [&](const NocConfig &config) {
            return replayOnce(config, tc.trace);
        },
        /*threads=*/0, "perfbench replay");
}

bool
synthPointOk(const SynthResult &result, const SyntheticWorkload &workload)
{
    const std::uint64_t budget =
        std::uint64_t{workload.packetsPerPe} * result.pes;
    const NocStats &s = result.stats;
    return result.completed && budget > 0 && s.delivered == s.injected &&
           s.injected + s.selfDelivered == budget;
}

bool
replayOk(const TraceResult &result, const Trace &trace)
{
    const NocStats &s = result.stats;
    return result.completed && s.delivered == s.injected &&
           s.delivered + s.selfDelivered == trace.messages.size();
}

std::vector<std::uint8_t>
resultBytes(const SynthResult &result)
{
    return encodeSynthResult(result);
}

std::vector<std::uint8_t>
resultBytes(const TraceResult &result)
{
    SynthResult wrapped;
    wrapped.stats = result.stats;
    wrapped.cycles = result.completion;
    wrapped.pes = result.pes;
    wrapped.completed = result.completed;
    return encodeSynthResult(wrapped);
}

double
routerCycles(const SynthResult &result)
{
    return static_cast<double>(result.cycles) *
           static_cast<double>(result.pes);
}

double
routerCycles(const TraceResult &result)
{
    return static_cast<double>(result.completion) *
           static_cast<double>(result.pes);
}

} // namespace perfbench
