/**
 * @file
 * Serializable engine state for checkpoint/restore.
 *
 * EngineState is the complete dynamic state of one single-channel
 * Network at a cycle boundary: the cycle counter, the pending-offer
 * slab, every occupied LinkSlab frame slot, and the measurement
 * block (NocStats, per-link traversal counts, per-node fairness
 * counters). Network::captureState fills one; restoreState replays
 * it into a freshly constructed device of the same geometry, after
 * which stepping continues bit-identically with the uninterrupted
 * run (tests/test_checkpoint.cpp pins this with golden FNV hashes).
 *
 * The EngineState codec walks its fields through net/codec.hpp, the
 * codec every payload shares, so snapshots are host-portable exactly
 * like sweep-cache payloads, and its Packet and NocStats fields are
 * written as the sweep cache writes them. The decoder bounds every
 * size by the bytes left before it allocates and cross-checks the
 * occupancy masks against the packet list, so hostile input degrades
 * to a clean decode failure, never UB.
 *
 * trim() clears the measurement block while keeping the functional
 * state (packets, offers, cycle), which is the temporal-sharding
 * handoff the distributed fabric needs: a downstream daemon resumes
 * the traffic mid-flight but measures only its own slice
 * (docs/checkpoint.md).
 */

#ifndef FT_NOC_ENGINE_STATE_HPP
#define FT_NOC_ENGINE_STATE_HPP

#include <concepts>
#include <cstdint>
#include <type_traits>
#include <utility>
#include <vector>

#include "net/wire.hpp"
#include "noc/noc_stats.hpp"
#include "noc/packet.hpp"

namespace fasttrack {

/** Complete dynamic state of one Network (see file comment). */
struct EngineState
{
    /** Per-node fairness counters (mirrors Network::NodeCounters). */
    struct NodeCounters
    {
        std::uint64_t injected = 0;
        std::uint64_t delivered = 0;
        std::uint64_t blockedCycles = 0;
    };

    /** Cycle counter at capture time. */
    Cycle cycle = 0;
    /** Geometry stamp: node count of the captured device. */
    std::uint32_t nodes = 0;
    /** Geometry stamp: LinkSlab frame-ring depth. */
    std::uint32_t slabDepth = 0;
    /** Pending offers as (node, packet) pairs, ascending by node. */
    std::vector<std::pair<NodeId, Packet>> offers;
    /** LinkSlab occupancy bytes, frame-major: [frame * nodes + node];
     *  only the low four bits (one per InPort) may be set. */
    std::vector<std::uint8_t> slabMasks;
    /** Occupied LinkSlab slots in (frame, node, port-bit) order; the
     *  masks say where each packet goes back. */
    std::vector<Packet> slabPackets;
    /** True when trim() cleared the measurement block below. */
    bool trimmed = false;
    NocStats stats;
    /** Per-link traversal counts, nodes * kNumOutPorts, row-major
     *  (empty when trimmed). */
    std::vector<std::uint64_t> linkTraversals;
    /** Per-node fairness counters (empty when trimmed). */
    std::vector<NodeCounters> nodeCounters;

    /** In-flight packet count implied by the slab contents. */
    std::uint64_t inFlight() const { return slabPackets.size(); }
    /** Pending-offer count implied by the offer list. */
    std::uint64_t pendingOffers() const { return offers.size(); }

    /**
     * Drop the measurement block (stats, traversal and fairness
     * counters) while keeping all functional state. A run restored
     * from a trimmed state replays the remaining traffic exactly but
     * reports statistics for its own slice only — the temporal-shard
     * handoff hook for the ftd fleet.
     */
    void trim();

    /** Internal consistency: masks/packets/offers agree, every
     *  packet's src and dst lie inside the torus, and the measurement
     *  block matches the trimmed flag. Decoders call this;
     *  restoreState re-checks in case the caller built the state by
     *  hand. */
    bool consistent() const;
};

/** Hand every NodeCounters field to @p f, in declaration order (see
 *  visitFields(NocConfig) in noc/config.hpp). */
template <typename Counters, typename F>
    requires std::same_as<std::remove_const_t<Counters>,
                          EngineState::NodeCounters>
decltype(auto)
visitFields(Counters &counters, F &&f)
{
    auto &[injected, delivered, blockedCycles] = counters;
    return f(injected, delivered, blockedCycles);
}

/** The geometry stamp (cycle, nodes, slabDepth), the offers, the
 *  occupancy masks as raw bytes, the slab packets and the trimmed
 *  flag; unless trimmed, then NocStats, the link traversals and the
 *  node counters, each without a count (the stamp implies it). */
void encodeEngineState(net::WireWriter &w, const EngineState &st);
/** False on any malformed field, size overflow, or mask/packet
 *  disagreement; @p out is unspecified then. */
bool decodeEngineState(net::WireReader &r, EngineState &out);

} // namespace fasttrack

#endif // FT_NOC_ENGINE_STATE_HPP
