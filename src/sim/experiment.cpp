#include "sim/experiment.hpp"

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

std::vector<RunPoint>
sweepPoints(const NocUnderTest &nut, TrafficPattern pattern,
            const std::vector<double> &rates, std::uint32_t packets_per_pe,
            std::uint64_t seed)
{
    std::vector<RunPoint> points(rates.size(),
                                 RunPoint{nut.config, nut.channels});
    for (std::size_t i = 0; i < rates.size(); ++i) {
        RunPoint &point = points[i];
        point.workload.pattern = pattern;
        point.workload.injectionRate = rates[i];
        point.workload.packetsPerPe = packets_per_pe;
        // Per-point seed: a shared seed would correlate the
        // measurement noise of every point in the sweep.
        point.workload.seed =
            splitmix64(seed ^ static_cast<std::uint64_t>(i));
    }
    return points;
}

std::vector<SweepPoint>
injectionSweep(const NocUnderTest &nut, TrafficPattern pattern,
               const std::vector<double> &rates,
               std::uint32_t packets_per_pe, std::uint64_t seed)
{
    // When a telemetry sink is installed the whole sweep shows up as
    // one host-side phase span in the exported Chrome trace.
    telemetry::PhaseTimer phase("injectionSweep " + nut.label);
    const std::vector<SynthResult> results = runPoints(
        sweepPoints(nut, pattern, rates, packets_per_pe, seed));
    std::vector<SweepPoint> out;
    out.reserve(rates.size());
    for (std::size_t i = 0; i < rates.size(); ++i)
        out.push_back(SweepPoint{rates[i], results[i]});
    return out;
}

RunPoint
saturationPoint(const NocUnderTest &nut, TrafficPattern pattern,
                std::uint32_t packets_per_pe, std::uint64_t seed)
{
    RunPoint point{nut.config, nut.channels};
    point.workload.pattern = pattern;
    point.workload.injectionRate = 1.0;
    point.workload.packetsPerPe = packets_per_pe;
    point.workload.seed = seed;
    return point;
}

SynthResult
saturationRun(const NocUnderTest &nut, TrafficPattern pattern,
              std::uint32_t packets_per_pe, std::uint64_t seed)
{
    const RunPoint point =
        saturationPoint(nut, pattern, packets_per_pe, seed);
    return cachedRunSynthetic(point.config, point.channels,
                              point.workload);
}

} // namespace fasttrack
