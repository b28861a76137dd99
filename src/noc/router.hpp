/**
 * @file
 * Single-router combinational arbitration: assign every in-flight
 * input packet (plus, lowest priority, the PE's offered packet) to a
 * distinct output port in one cycle, following the routing policy's
 * ordered candidate lists as precomputed by its CandidateTable.
 */

#ifndef FT_NOC_ROUTER_HPP
#define FT_NOC_ROUTER_HPP

#include <array>
#include <bit>
#include <memory>
#include <vector>

#include "common/annotations.hpp"
#include "common/logging.hpp"
#include "common/types.hpp"
#include "noc/noc_stats.hpp"
#include "noc/packet.hpp"
#include "noc/routing.hpp"
#include "noc/topology.hpp"

namespace fasttrack {

/**
 * Per-device lookups from a destination id to its ring-distance
 * classes (CandidateTable::classOf) at any router: everything the
 * routing decision needs that depends on N and D. A device builds one
 * and shares it across its routers.
 */
struct RingClasses
{
    RingClasses(std::uint32_t n, std::uint32_t d);

    /** Node id -> x | y << 16. */
    std::vector<std::uint32_t> xy;
    /** Ring offset `to + n - from` (to, from < n) -> class of the
     *  eastward distance from `from` to `to`. */
    std::vector<std::uint8_t> cls;
};

/**
 * One FastTrack/Hoplite router.
 *
 * The router itself is stateless between cycles (all state lives in
 * the network's link registers); this class caches the per-site
 * geometry facts and implements the priority-ordered greedy matching
 * as lookups in its site kind's CandidateTable. Greedy assignment
 * always succeeds: each input's candidate list ends with all
 * physically reachable outputs, and at every router the
 * reachable-output count of the k-th priority input is at least k
 * (lane partitioning covers the inject variant).
 */
class Router
{
  public:
    /**
     * @param classes the device's destination -> class lookups,
     *        shared across its routers. When null the router builds a
     *        private copy.
     */
    Router(const Topology &topology, Coord pos,
           std::shared_ptr<const RingClasses> classes = nullptr);

    /** Geometry facts the routing policy needs at @p pos (also the key
     *  of the shared candidate tables). */
    static RouterSite siteFor(const Topology &topology, Coord pos);

    /**
     * Route one cycle: the one arbitration entry point. Parameterized
     * at compile time on the exit-gate policy and the output sink so
     * the network's stepping core can inline the whole router (no
     * virtual calls, no std::function, no optional churn on the hot
     * path).
     *
     * @param inputs the router's four input-port packet registers
     *        (slab row); entries selected by @p input_mask are routed
     *        and mutated in place (hop/deflection bookkeeping). The
     *        caller clears the occupancy mask afterwards.
     * @param input_mask occupancy bits, bit i = InPort i holds a packet.
     * @param pe_offer packet the client wants to inject, or nullptr.
     *        Copied into a local before stamping: the local never
     *        aliases the link slab, so the optimizer keeps its fields
     *        in registers across the sink calls (measurably faster
     *        than stamping the offer slot in place).
     * @param now current cycle (stamped on accepted injections).
     * @param stats measurement sink.
     * @param exit_ok callable `bool(const Packet &)`: whether the
     *        client can accept *this* packet this cycle. Consulted at
     *        the moment a specific packet attempts the exit, so the
     *        gate decision always concerns the packet actually chosen
     *        by arbitration. Must be pure within a cycle.
     * @param sink receives the routing outcome:
     *        `sink.forward(OutPort, const Packet &)` for each packet
     *        leaving on a link (injections included) and
     *        `sink.deliver(InPort, const Packet &)` for a delivery to
     *        the local client.
     * @return whether the PE's offered packet was accepted.
     */
    template <typename Gate, typename Sink>
    FT_HOT bool routeCore(Packet *inputs, std::uint8_t input_mask,
                          const Packet *pe_offer, Cycle now,
                          NocStats &stats, Gate &&exit_ok,
                          Sink &&sink) const
    {
        const CandidateTable &table = *table_;
        unsigned taken = 0; // bit i = OutPort i
        bool exit_granted = false;
        // Hop accounting of a forward, without branches.
        const auto countHop = [&stats](Packet &p, unsigned decision) {
            const unsigned ex =
                (decision & CandidateTable::kExpress) ? 1 : 0;
            p.expressHops = static_cast<std::uint16_t>(p.expressHops + ex);
            p.shortHops = static_cast<std::uint16_t>(p.shortHops + (ex ^ 1));
            stats.expressHopTraversals += ex;
            stats.shortHopTraversals += ex ^ 1;
        };

        // In-flight packets first, in livelock-avoidance priority
        // order: by set bit, W_EX, N_EX, W_SH, N_SH. With the paper's
        // rule turning W traffic beats ring (N) traffic; the naive
        // ablation order swaps each W/N pair so ring traffic wins.
        const unsigned mask = input_mask;
        unsigned order =
            flip_ ? ((mask & 0x5u) << 1) | ((mask >> 1) & 0x5u) : mask;
        for (; order; order &= order - 1) {
            const unsigned slot =
                static_cast<unsigned>(std::countr_zero(order)) ^ flip_;
            Packet &p = inputs[slot];
            const std::uint32_t xy = xy_[p.dst];
            const std::size_t row = CandidateTable::row(
                slot, clsX_[xy & 0xffffu], clsY_[xy >> 16]);

            // The exit is always a list's first entry: try it first.
            const OutPort exit = table.exitPort(row);
            if (exit != OutPort::none) {
                const unsigned bit = 1u << static_cast<unsigned>(exit);
                if (exit_granted || !exit_ok(p)) {
                    // Client exit unavailable: fall through to the
                    // deflection candidates.
                    ++stats.exitBlocked;
                } else if (!(taken & bit)) {
                    taken |= bit;
                    exit_granted = true;
                    sink.deliver(static_cast<InPort>(slot), p);
                    continue;
                }
            }

            const unsigned d = table.route(row, taken);
            FT_ASSERT(!(d & CandidateTable::kNone), "router at ",
                      coordToString(pos_),
                      " could not forward packet on ",
                      toString(static_cast<InPort>(slot)));
            const unsigned out = d & CandidateTable::kPortMask;
            taken |= 1u << out;
            const unsigned defl = (d & CandidateTable::kDeflect) ? 1 : 0;
            p.deflections = static_cast<std::uint16_t>(p.deflections + defl);
            stats.deflectionsByPort[slot] += defl;
            stats.laneDeflections += (d & CandidateTable::kLane) ? 1 : 0;
            stats.misroutesByPort[slot] +=
                (d & CandidateTable::kMisroute) ? 1 : 0;
            countHop(p, d);
            sink.forward(static_cast<OutPort>(out), p);
        }

        // PE injection last, and only onto a productive output.
        if (!pe_offer)
            return false;
        const std::uint32_t xy = xy_[pe_offer->dst];
        const unsigned d =
            table.inject(clsX_[xy & 0xffffu], clsY_[xy >> 16], taken);
        if (d & CandidateTable::kNone) {
            ++stats.injectionBlockedCycles;
            return false;
        }
        Packet p = *pe_offer;
        p.injected = now;
        p.expressClass = (d & CandidateTable::kExpressClass) != 0;
        countHop(p, d);
        sink.forward(
            static_cast<OutPort>(d & CandidateTable::kPortMask), p);
        ++stats.injected;
        return true;
    }

    Coord pos() const { return pos_; }
    const RouterSite &site() const { return site_; }

  private:
    /** Hot lookups first: this site kind's decisions... */
    const CandidateTable *table_;
    /** ...the device's destination -> (x, y) split... */
    const std::uint32_t *xy_;
    /** ...and class lookups offset by this router's column and row,
     *  so clsX_[dst_x] is the class of the eastward distance. */
    const std::uint8_t *clsX_;
    const std::uint8_t *clsY_;
    /** 1 under the ring-first ablation order (turnPriority off). */
    unsigned flip_;
    Coord pos_;
    RouterSite site_;
    std::shared_ptr<const RingClasses> classes_;
};

} // namespace fasttrack

#endif // FT_NOC_ROUTER_HPP
