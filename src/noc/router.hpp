/**
 * @file
 * Single-router combinational arbitration: assign every in-flight
 * input packet (plus, lowest priority, the PE's offered packet) to a
 * distinct output port in one cycle, following the routing policy's
 * ordered candidate lists.
 */

#ifndef FT_NOC_ROUTER_HPP
#define FT_NOC_ROUTER_HPP

#include <array>
#include <memory>
#include <optional>

#include "common/annotations.hpp"
#include "common/logging.hpp"
#include "common/types.hpp"
#include "noc/noc_stats.hpp"
#include "noc/packet.hpp"
#include "noc/routing.hpp"
#include "noc/topology.hpp"

namespace fasttrack {

/**
 * One FastTrack/Hoplite router.
 *
 * The router itself is stateless between cycles (all state lives in
 * the network's link registers); this class caches the per-site
 * geometry facts and implements the priority-ordered greedy matching.
 * Greedy assignment always succeeds: each input's candidate list ends
 * with all physically reachable outputs, and at every router the
 * reachable-output count of the k-th priority input is at least k
 * (lane partitioning covers the inject variant).
 */
class Router
{
  public:
    /**
     * @param table precomputed candidate table for this router's site,
     *        shared across routers with identical geometry facts (a
     *        torus has at most four: express-x/express-y presence).
     *        When null the router builds a private copy.
     */
    Router(const Topology &topology, Coord pos,
           std::shared_ptr<const CandidateTable> table = nullptr);

    /** Geometry facts the routing policy needs at @p pos (also the key
     *  for sharing candidate tables between equivalent sites). */
    static RouterSite siteFor(const Topology &topology, Coord pos);

    /** Link-register contents feeding this router, indexed by InPort
     *  (wEx, nEx, wSh, nSh). */
    using Inputs = std::array<std::optional<Packet>, 4>;

    /** Outcome of one cycle of arbitration. */
    struct Result
    {
        /** Forwarded packet per output port, indexed by OutPort. */
        std::array<std::optional<Packet>, kNumOutPorts> out{};
        /** Packet delivered to the local client this cycle, if any. */
        std::optional<Packet> delivered;
        /** Input port the delivered packet arrived on. */
        InPort deliveredFrom = InPort::pe;
        /** Whether the PE's offered packet was accepted. */
        bool peAccepted = false;
    };

    /**
     * Route one cycle (optional-based convenience wrapper over
     * routeCore; tests and external callers use this form).
     * @param inputs in-flight packets on the four link inputs; consumed.
     * @param pe_offer packet the client wants to inject, if any.
     * @param exit_ok whether the client can accept a delivery this
     *        cycle (multi-channel NoCs arbitrate this externally).
     * @param now current cycle (stamped on accepted injections).
     * @param stats measurement sink.
     */
    Result route(Inputs &inputs, const std::optional<Packet> &pe_offer,
                 bool exit_ok, Cycle now, NocStats &stats) const;

    /**
     * The arbitration engine proper, parameterized at compile time on
     * the exit-gate policy and the output sink so the network's
     * stepping core can inline the whole router (no virtual calls, no
     * std::function, no optional churn on the hot path).
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
        std::array<bool, kNumOutPorts> taken{};
        bool exit_granted = false;
        bool pe_accepted = false;

        const auto distances = [&](const Packet &p, std::uint32_t &dx,
                                   std::uint32_t &dy) {
            // Reciprocal-multiply id -> (x, y) split; one hardware
            // divide per packet per cycle is measurable at scale.
            const std::uint32_t dst_x = divN_.mod(p.dst);
            const std::uint32_t dst_y = divN_.div(p.dst);
            dx = ringDistance(pos_.x, dst_x, n_);
            dy = ringDistance(pos_.y, dst_y, n_);
        };

        // DOR direction the packet ought to leave in; anything else is
        // a misroute (Fig 18's deflection semantics).
        enum class Dir { east, south, exit };
        const auto desiredDir = [](std::uint32_t dx, std::uint32_t dy) {
            if (dx > 0)
                return Dir::east;
            return dy > 0 ? Dir::south : Dir::exit;
        };
        const auto outDir = [](OutPort out) {
            return (out == OutPort::eEx || out == OutPort::eSh)
                       ? Dir::east
                       : Dir::south;
        };

        const auto assign = [&](InPort in, Packet &p, std::uint32_t dx,
                                std::uint32_t dy,
                                const CandidateList &cands) {
            const Dir want = desiredDir(dx, dy);
            for (std::size_t i = 0; i < cands.size(); ++i) {
                const Candidate &c = cands[i];
                if (c.exit) {
                    if (exit_granted || !exit_ok(p)) {
                        // Client exit unavailable: fall through to the
                        // deflection candidates.
                        ++stats.exitBlocked;
                        continue;
                    }
                    const auto idx = static_cast<std::size_t>(c.out);
                    if (taken[idx])
                        continue;
                    taken[idx] = true;
                    exit_granted = true;
                    if (i != 0) {
                        ++p.deflections;
                        ++stats.deflectionsByPort[static_cast<int>(in)];
                    }
                    sink.deliver(in, p);
                    return true;
                }
                const auto idx = static_cast<std::size_t>(c.out);
                if (taken[idx])
                    continue;
                taken[idx] = true;
                if (i != 0) {
                    ++p.deflections;
                    ++stats.deflectionsByPort[static_cast<int>(in)];
                    if (isExpress(cands[0].out) && !isExpress(c.out))
                        ++stats.laneDeflections;
                }
                if (outDir(c.out) != want)
                    ++stats.misroutesByPort[static_cast<int>(in)];
                if (isExpress(c.out)) {
                    ++p.expressHops;
                    ++stats.expressHopTraversals;
                } else {
                    ++p.shortHops;
                    ++stats.shortHopTraversals;
                }
                sink.forward(c.out, p);
                return true;
            }
            return false;
        };

        // In-flight packets first, in livelock-avoidance priority
        // order. With the paper's rule, turning W traffic beats ring
        // (N) traffic; the naive ablation order lets ring traffic win.
        static constexpr InPort kTurnFirst[] = {
            InPort::wEx, InPort::nEx, InPort::wSh, InPort::nSh};
        static constexpr InPort kRingFirst[] = {
            InPort::nEx, InPort::wEx, InPort::nSh, InPort::wSh};
        const auto &order = turnPriority_ ? kTurnFirst : kRingFirst;

        for (InPort in : order) {
            const auto slot = static_cast<std::size_t>(in);
            if (!(input_mask & (1u << slot)))
                continue;
            Packet &p = inputs[slot];
            std::uint32_t dx = 0, dy = 0;
            distances(p, dx, dy);
            const CandidateList &cands =
                table_->route(in, table_->cls(dx), table_->cls(dy));
            const bool ok = assign(in, p, dx, dy, cands);
            FT_ASSERT(ok, "router at ", coordToString(pos_),
                      " could not forward packet on ", toString(in));
        }

        // PE injection last, and only onto a productive output.
        if (pe_offer) {
            Packet p = *pe_offer;
            p.injected = now;
            std::uint32_t dx = 0, dy = 0;
            distances(p, dx, dy);
            const std::uint8_t dxc = table_->cls(dx);
            const std::uint8_t dyc = table_->cls(dy);
            const CandidateList &cands = table_->inject(dxc, dyc);
            p.expressClass = table_->injectExpress(dxc, dyc);
            for (std::size_t i = 0; i < cands.size(); ++i) {
                const auto idx =
                    static_cast<std::size_t>(cands[i].out);
                if (taken[idx])
                    continue;
                taken[idx] = true;
                if (isExpress(cands[i].out)) {
                    ++p.expressHops;
                    ++stats.expressHopTraversals;
                } else {
                    ++p.shortHops;
                    ++stats.shortHopTraversals;
                }
                sink.forward(cands[i].out, p);
                pe_accepted = true;
                ++stats.injected;
                break;
            }
            if (!pe_accepted)
                ++stats.injectionBlockedCycles;
        }

        return pe_accepted;
    }

    Coord pos() const { return pos_; }
    const RouterSite &site() const { return site_; }

  private:
    Coord pos_;
    std::uint32_t n_;
    RouterSite site_;
    bool turnPriority_;
    std::shared_ptr<const CandidateTable> table_;
    FastDiv divN_;
};

} // namespace fasttrack

#endif // FT_NOC_ROUTER_HPP
