#include "sim/experiment.hpp"

#include <cmath>
#include <limits>
#include <numeric>

#include "common/rng.hpp"
#include "sim/sweep_cache.hpp"
#include "telemetry/sink.hpp"

namespace fasttrack {

std::vector<NocUnderTest>
standardLineup(std::uint32_t n)
{
    return {
        {"FT(" + std::to_string(n * n) + ",2,1)",
         NocConfig::fastTrack(n, 2, 1), 1},
        {"FT(" + std::to_string(n * n) + ",2,2)",
         NocConfig::fastTrack(n, 2, 2), 1},
        {"Hoplite", NocConfig::hoplite(n), 1},
    };
}

std::vector<NocUnderTest>
isoWiringLineup(std::uint32_t n)
{
    return {
        {"Hoplite-3x", NocConfig::hoplite(n), 3},
        {"Hoplite", NocConfig::hoplite(n), 1},
        {"FT(" + std::to_string(n * n) + ",2,2)",
         NocConfig::fastTrack(n, 2, 2), 1},
        {"FT(" + std::to_string(n * n) + ",2,1)",
         NocConfig::fastTrack(n, 2, 1), 1},
    };
}

std::vector<double>
injectionRateGrid()
{
    return {0.01, 0.02, 0.05, 0.10, 0.20, 0.35, 0.50, 0.75, 1.00};
}

std::vector<SweepPoint>
injectionSweep(const NocUnderTest &nut, TrafficPattern pattern,
               const std::vector<double> &rates,
               std::uint32_t packets_per_pe, std::uint64_t seed)
{
    // Each rate point simulates an independent network instance, so
    // every point is its own pool work item (cachedRuns). When a
    // telemetry sink is installed the whole sweep shows up as one
    // host-side phase span in the exported Chrome trace.
    telemetry::PhaseTimer phase("injectionSweep " + nut.label);
    std::vector<SyntheticWorkload> workloads(rates.size());
    for (std::size_t i = 0; i < rates.size(); ++i) {
        SyntheticWorkload &workload = workloads[i];
        workload.pattern = pattern;
        workload.injectionRate = rates[i];
        workload.packetsPerPe = packets_per_pe;
        // Per-point seed: a shared seed would correlate the
        // measurement noise of every point in the sweep.
        workload.seed =
            splitmix64(seed ^ static_cast<std::uint64_t>(i));
    }
    const std::vector<SynthResult> results =
        cachedRuns(nut.config, nut.channels, workloads);
    std::vector<SweepPoint> out;
    out.reserve(rates.size());
    for (std::size_t i = 0; i < rates.size(); ++i)
        out.push_back(SweepPoint{rates[i], results[i]});
    return out;
}

SynthResult
saturationRun(const NocUnderTest &nut, TrafficPattern pattern,
              std::uint32_t packets_per_pe, std::uint64_t seed)
{
    SyntheticWorkload workload;
    workload.pattern = pattern;
    workload.injectionRate = 1.0;
    workload.packetsPerPe = packets_per_pe;
    workload.seed = seed;
    return cachedRunSynthetic(nut.config, nut.channels, workload);
}

double
RepeatedResult::rateCv() const
{
    if (completedRuns == 0)
        return std::numeric_limits<double>::quiet_NaN();
    return rate.mean() > 0.0 ? rate.stddev() / rate.mean() : 0.0;
}

RepeatedResult
repeatedRuns(const NocUnderTest &nut, TrafficPattern pattern,
             double rate, std::uint32_t packets_per_pe,
             const std::vector<std::uint64_t> &seeds, Cycle max_cycles)
{
    std::vector<SyntheticWorkload> workloads(seeds.size());
    for (std::size_t i = 0; i < seeds.size(); ++i) {
        SyntheticWorkload &workload = workloads[i];
        workload.pattern = pattern;
        workload.injectionRate = rate;
        workload.packetsPerPe = packets_per_pe;
        workload.seed = seeds[i];
    }
    const std::vector<SynthResult> results =
        cachedRuns(nut.config, nut.channels, workloads, max_cycles);

    // Aggregate serially in seed-list order so the RunningStat
    // accumulation is identical for every worker count.
    RepeatedResult out;
    for (std::size_t i = 0; i < seeds.size(); ++i) {
        const SynthResult &res = results[i];
        if (!res.completed) {
            out.failedSeeds.push_back(seeds[i]);
            continue;
        }
        ++out.completedRuns;
        out.rate.add(res.sustainedRate());
        out.avgLatency.add(res.avgLatency());
        out.worstLatency.add(static_cast<double>(res.worstLatency()));
    }
    return out;
}

} // namespace fasttrack
