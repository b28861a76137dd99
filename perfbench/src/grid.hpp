/**
 * @file
 * The benchmark's inputs, generated from the workload seed, and the
 * calls that run them through the library's public entry points:
 *
 *  - the synthetic grid of bench_all (Figs 11-14, 16, 17), run through
 *    injectionSweep, saturationRun and cachedRunSynthetic;
 *  - the Fig 15a SpMV and Fig 15c LU-dataflow traces, replayed with
 *    runSim on Hoplite and every FastTrack candidate;
 *  - the reduced sweep sent to a remote daemon.
 *
 * Plus the output checks every run applies to what comes back.
 */

#ifndef PERFBENCH_GRID_HPP
#define PERFBENCH_GRID_HPP

#include <cstdint>
#include <string>
#include <vector>

#include "sim/experiment.hpp"
#include "sim/simulation.hpp"

namespace perfbench {

using namespace fasttrack;

/** One call into the sweep layer, as bench_all makes it. */
struct SynthCall
{
    enum class Kind
    {
        /** injectionSweep over rates. */
        sweep,
        /** saturationRun at rate 1.0. */
        saturation,
        /** cachedRunSynthetic of one point at rates[0]. */
        single,
    };

    Kind kind = Kind::sweep;
    std::string label;
    NocUnderTest nut;
    TrafficPattern pattern = TrafficPattern::random;
    std::vector<double> rates;
    std::uint32_t packetsPerPe = 1024;
    std::uint64_t seed = 1;
};

/** The bench_all grid (the --smoke grid when @p short_grid). */
std::vector<SynthCall> synthGrid(std::uint64_t seed, bool short_grid);

/** The reduced sweep of remote-loopback: the standard lineup on 8x8
 *  under RANDOM and TRANSPOSE at three rates, 64 packets per PE. */
std::vector<SynthCall> remoteGrid(std::uint64_t seed);

/** The workloads @p call simulates, in result order (the per-point
 *  seeds follow injectionSweep's documented derivation). */
std::vector<SyntheticWorkload> callWorkloads(const SynthCall &call);

/** Run @p call through the library; one result per workload. */
std::vector<SynthResult> runCall(const SynthCall &call);

/** Every point of a grid, flattened in call order. */
struct SynthPoint
{
    std::size_t call = 0;
    NocConfig config;
    std::uint32_t channels = 1;
    SyntheticWorkload workload;
};
std::vector<SynthPoint> gridPoints(const std::vector<SynthCall> &grid);

/** Run every call of @p grid in order. */
std::vector<SynthResult> runGrid(const std::vector<SynthCall> &grid);

/** One trace with the NoCs it is replayed on. */
struct TraceCase
{
    Trace trace;
    /** Hoplite first, then the FastTrack candidates for its size. */
    std::vector<NocConfig> configs;
};

/** Cycle guard of every replay (the Fig 15 benches' value). */
inline constexpr Cycle kReplayMaxCycles = 50'000'000;

/** Fig 15a SpMV traces (every catalog matrix x PE side 2..16) and
 *  Fig 15c LU traces (every catalog DAG x side 4..16), with the
 *  catalog seeds mixed with @p seed. @p short_set keeps two of each
 *  at the smaller sides. */
std::vector<TraceCase> traceSet(std::uint64_t seed, bool short_set);

/** The LU trace remote-loopback shards: the smallest catalog DAG on
 *  8x8, from the same generator as traceSet. */
TraceCase shardedLuCase(std::uint64_t seed);

/** Replay @p tc on each of its NoCs on the pool, as the Fig 15 benches
 *  do; one result per config. */
std::vector<TraceResult> runTraceCase(const TraceCase &tc);

/** Single-threaded runSim replay of @p trace on @p config. */
TraceResult replayOnce(const NocConfig &config, const Trace &trace);

/** A synthetic point is correct when it completed, delivered every
 *  packet it injected, and injected its whole budget of packetsPerPe
 *  x PEs (self-addressed packets bypass the network and are counted
 *  apart, in selfDelivered). */
bool synthPointOk(const SynthResult &result,
                  const SyntheticWorkload &workload);
/** A replay is correct when it finished and delivered every message,
 *  self-addressed ones included. */
bool replayOk(const TraceResult &result, const Trace &trace);

/** Stable bytes of a result for identity checks: the sweep-cache
 *  codec (a replay is wrapped as a SynthResult of its makespan). */
std::vector<std::uint8_t> resultBytes(const SynthResult &result);
std::vector<std::uint8_t> resultBytes(const TraceResult &result);

/** Simulated router-cycles (cycles x PEs) of a result. */
double routerCycles(const SynthResult &result);
double routerCycles(const TraceResult &result);

} // namespace perfbench

#endif // PERFBENCH_GRID_HPP
