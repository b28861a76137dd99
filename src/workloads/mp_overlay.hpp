/**
 * @file
 * Multi-processor overlay traffic synthesis (Fig 15d): parameterized
 * analogs of the SNIPER/PARSEC traces the paper replays on a 32-PE
 * overlay. Each benchmark is characterized by its communication
 * intensity (compute gap between message bursts), locality mix
 * (neighbour vs shared-hub vs uniform) and burstiness; these are the
 * properties that determine how much a faster NoC helps.
 */

#ifndef FT_WORKLOADS_MP_OVERLAY_HPP
#define FT_WORKLOADS_MP_OVERLAY_HPP

#include <cstdint>
#include <string>
#include <vector>

#include "traffic/trace.hpp"

namespace fasttrack {

/** Traffic character of one PARSEC-like benchmark. */
struct ParsecBenchmark
{
    std::string name;
    /** Messages each PE sends over the run. */
    std::uint32_t msgsPerPe = 1024;
    /** Mean compute cycles between bursts (comm intensity knob). */
    double computeGap = 8.0;
    /** Messages per burst. */
    std::uint32_t burstLen = 4;
    /** P(destination is a forward ring neighbour). */
    double localFraction = 0.3;
    /** P(destination is one of the shared hub PEs). */
    double hubFraction = 0.2;
    /** Number of hub PEs (locks / shared queues / pipeline stages). */
    std::uint32_t hubCount = 2;
    std::uint64_t seed = 51;
};

/**
 * Synthesize a timestamped trace for @p bench on an n x n NoC, with
 * @p n in [2, kMaxTraceSide], using the first @p active_pes PEs as
 * workers (the paper's runs use 32 of the overlay's PEs).
 */
Trace mpOverlayTrace(const ParsecBenchmark &bench, std::uint32_t n,
                     std::uint32_t active_pes);

/** Fig 15d catalog: blackscholes, dedup, fluidanimate, freqmine,
 *  vips, x264 analogs. */
const std::vector<ParsecBenchmark> &parsecCatalog();

} // namespace fasttrack

#endif // FT_WORKLOADS_MP_OVERLAY_HPP
