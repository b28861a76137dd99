/**
 * @file
 * Aggregate NoC measurement state: everything the paper's evaluation
 * section reports (sustained rate, latency distributions, link-class
 * usage, per-port deflections).
 */

#ifndef FT_NOC_NOC_STATS_HPP
#define FT_NOC_NOC_STATS_HPP

#include <array>
#include <concepts>
#include <cstdint>
#include <type_traits>

#include "common/stats.hpp"
#include "common/types.hpp"
#include "noc/routing.hpp"

namespace fasttrack {

/** Counters and distributions collected by a Network. */
struct NocStats
{
    /** Packets accepted into the network at a PE port. */
    std::uint64_t injected = 0;
    /** Packets delivered to their destination client. */
    std::uint64_t delivered = 0;
    /** Self-addressed packets short-circuited at the client. */
    std::uint64_t selfDelivered = 0;

    /** Link traversals by class (Fig 18a). */
    std::uint64_t shortHopTraversals = 0;
    std::uint64_t expressHopTraversals = 0;

    /** Deflections per input port (Fig 18b): the packet was assigned
     *  an output that was not its first choice. */
    std::array<std::uint64_t, kNumInPorts> deflectionsByPort{};
    /** Misroutes per input port: the packet left in a direction that
     *  makes no DOR progress (strict subset of deflections - a lane
     *  downgrade in the right direction is not a misroute). */
    std::array<std::uint64_t, kNumInPorts> misroutesByPort{};
    /** Subset of deflections where an express lane was preferred but a
     *  short lane was assigned. */
    std::uint64_t laneDeflections = 0;
    /** Packets at their destination that could not take the exit. */
    std::uint64_t exitBlocked = 0;
    /** Cycles any PE offer spent waiting for injection. */
    std::uint64_t injectionBlockedCycles = 0;

    /** delivered-cycle minus created-cycle (includes source queueing;
     *  Fig 12/16 metric). */
    Histogram totalLatency;
    /** delivered-cycle minus injected-cycle (pure network time). */
    Histogram networkLatency;
    /** Router traversals per delivered packet. */
    Histogram hopCount;
    /** Deflections per delivered packet. */
    Histogram deflectionCount;

    std::uint64_t totalDeflections() const;
    std::uint64_t totalMisroutes() const;

    /** Accumulate another stats block (multi-channel aggregation). */
    void merge(const NocStats &other);

    /** Packets per cycle per PE over @p cycles of simulated time. */
    double sustainedRate(std::uint32_t pes, Cycle cycles) const;

    /** Average toggling activity proxy for the power model: fraction
     *  of link-cycles carrying a packet, given the configured link
     *  count and elapsed cycles. */
    double linkActivity(std::uint64_t total_links, Cycle cycles) const;

    void reset();
};

/** Hand every NocStats field to @p f, in declaration order (see
 *  visitFields(NocConfig) in noc/config.hpp). */
template <typename Stats, typename F>
    requires std::same_as<std::remove_const_t<Stats>, NocStats>
decltype(auto)
visitFields(Stats &stats, F &&f)
{
    auto &[injected, delivered, selfDelivered, shortHopTraversals,
           expressHopTraversals, deflectionsByPort, misroutesByPort,
           laneDeflections, exitBlocked, injectionBlockedCycles,
           totalLatency, networkLatency, hopCount, deflectionCount] = stats;
    return f(injected, delivered, selfDelivered, shortHopTraversals,
             expressHopTraversals, deflectionsByPort, misroutesByPort,
             laneDeflections, exitBlocked, injectionBlockedCycles,
             totalLatency, networkLatency, hopCount, deflectionCount);
}

} // namespace fasttrack

#endif // FT_NOC_NOC_STATS_HPP
