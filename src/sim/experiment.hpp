/**
 * @file
 * Experiment-sweep helpers shared by the bench harnesses: injection
 * rate grids, per-configuration sweeps, and speedup computation.
 */

#ifndef FT_SIM_EXPERIMENT_HPP
#define FT_SIM_EXPERIMENT_HPP

#include <string>
#include <vector>

#include "sim/simulation.hpp"

namespace fasttrack {

/** One NoC under test: configuration plus channel replication. */
struct NocUnderTest
{
    std::string label;
    NocConfig config;
    std::uint32_t channels = 1;
};

/** The standard competitors of the paper's synthetic plots. */
std::vector<NocUnderTest> standardLineup(std::uint32_t n);
/** The iso-wiring lineup of Fig 13/14 (adds Hoplite-2x/3x). */
std::vector<NocUnderTest> isoWiringLineup(std::uint32_t n);

/** The paper's log-spaced injection-rate grid (Figs 11-13). */
std::vector<double> injectionRateGrid();

/** One point of an injection sweep. */
struct SweepPoint
{
    double rate = 0.0;
    SynthResult result;
};

/**
 * The run points of an injection sweep of @p nut over @p rates, in
 * rate order. Each rate point runs under its own seed,
 * splitmix64(seed ^ point index), so per-point measurement noise is
 * independent across the sweep instead of correlated by a shared
 * packet-generation stream.
 *
 * @param packets_per_pe closed-workload budget (paper: 1K).
 */
std::vector<RunPoint> sweepPoints(const NocUnderTest &nut,
                                  TrafficPattern pattern,
                                  const std::vector<double> &rates,
                                  std::uint32_t packets_per_pe = 1024,
                                  std::uint64_t seed = 1);

/**
 * Sweep a configuration over injection rates for one traffic pattern:
 * sweepPoints run as one executor batch (runPoints, which consults
 * the sweep result cache, sim/sweep_cache.hpp).
 */
std::vector<SweepPoint> injectionSweep(const NocUnderTest &nut,
                                       TrafficPattern pattern,
                                       const std::vector<double> &rates,
                                       std::uint32_t packets_per_pe = 1024,
                                       std::uint64_t seed = 1);

/** The run point of saturationRun. */
RunPoint saturationPoint(const NocUnderTest &nut, TrafficPattern pattern,
                         std::uint32_t packets_per_pe = 1024,
                         std::uint64_t seed = 1);

/**
 * Saturation throughput: sustained rate at 100% offered load
 * (Fig 14/17/19 operating point).
 */
SynthResult saturationRun(const NocUnderTest &nut, TrafficPattern pattern,
                          std::uint32_t packets_per_pe = 1024,
                          std::uint64_t seed = 1);

} // namespace fasttrack

#endif // FT_SIM_EXPERIMENT_HPP
