/**
 * @file
 * The NoC packet. Hoplite-family NoCs route whole packets (one wide
 * flit) per cycle, so a packet is a header plus bookkeeping; payload
 * width only matters to the FPGA cost models.
 */

#ifndef FT_NOC_PACKET_HPP
#define FT_NOC_PACKET_HPP

#include <concepts>
#include <cstdint>
#include <type_traits>

#include "common/types.hpp"

namespace fasttrack {

/** One single-flit NoC packet with measurement bookkeeping. */
struct Packet
{
    /** Unique id assigned at creation. */
    std::uint64_t id = 0;
    /** Source node. */
    NodeId src = kInvalidNode;
    /** Destination node. */
    NodeId dst = kInvalidNode;
    /** Cycle the packet was generated (entered the source queue). */
    Cycle created = 0;
    /** Cycle the packet won PE injection into the network. */
    Cycle injected = 0;
    /** User correlation tag (e.g. dataflow token id); opaque to NoC. */
    std::uint64_t tag = 0;

    // --- per-packet route accounting ---
    /** Short (nominal) link traversals so far. */
    std::uint16_t shortHops = 0;
    /** Express link traversals so far. */
    std::uint16_t expressHops = 0;
    /** Times this packet received a non-preferred output. */
    std::uint16_t deflections = 0;
    /** True when riding an express lane in inject-only NoCs. */
    bool expressClass = false;

    std::uint32_t totalHops() const
    {
        return static_cast<std::uint32_t>(shortHops) + expressHops;
    }
};

/** Hand every Packet field to @p f, in declaration order (see
 *  visitFields(NocConfig) in noc/config.hpp). */
template <typename P, typename F>
    requires std::same_as<std::remove_const_t<P>, Packet>
decltype(auto)
visitFields(P &packet, F &&f)
{
    auto &[id, src, dst, created, injected, tag, shortHops, expressHops,
           deflections, expressClass] = packet;
    return f(id, src, dst, created, injected, tag, shortHops, expressHops,
             deflections, expressClass);
}

} // namespace fasttrack

#endif // FT_NOC_PACKET_HPP
