/**
 * @file
 * Serializable engine state for checkpoint/restore.
 *
 * EngineState is the complete dynamic state of one single-channel
 * Network at a cycle boundary: the cycle counter, the pending-offer
 * slab, every occupied LinkSlab frame slot, and the measurement
 * block (NocStats). Network::captureState fills one; restoreState
 * replays it into a freshly constructed device of the same geometry,
 * after which stepping continues bit-identically with the
 * uninterrupted run (tests/test_checkpoint.cpp pins this with golden
 * FNV hashes).
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

#include <cstdint>
#include <utility>
#include <vector>

#include "net/wire.hpp"
#include "noc/noc_stats.hpp"
#include "noc/packet.hpp"

namespace fasttrack {

/** Complete dynamic state of one Network (see file comment). */
struct EngineState
{
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
    /** True when trim() reset the stats below; the codec then omits
     *  them. */
    bool trimmed = false;
    NocStats stats;

    /** In-flight packet count implied by the slab contents. */
    std::uint64_t inFlight() const { return slabPackets.size(); }
    /** Pending-offer count implied by the offer list. */
    std::uint64_t pendingOffers() const { return offers.size(); }

    /**
     * Drop the measurement block (the stats) while keeping all
     * functional state. A run restored from a trimmed state replays
     * the remaining traffic exactly but reports statistics for its own
     * slice only — the temporal-shard handoff hook for the ftd fleet.
     */
    void trim();

    /** Internal consistency: masks, packets and offers agree, and
     *  every packet's src and dst lie inside the torus. Decoders call
     *  this; restoreState re-checks in case the caller built the state
     *  by hand. */
    bool consistent() const;
};

/** The geometry stamp (cycle, nodes, slabDepth), the offers, the
 *  occupancy masks as raw bytes, the slab packets and the trimmed
 *  flag; unless trimmed, then NocStats. */
void encodeEngineState(net::WireWriter &w, const EngineState &st);
/** False on any malformed field, size overflow, or mask/packet
 *  disagreement; @p out is unspecified then. */
bool decodeEngineState(net::WireReader &r, EngineState &out);

} // namespace fasttrack

#endif // FT_NOC_ENGINE_STATE_HPP
