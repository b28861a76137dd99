/**
 * @file
 * The optional-based one-cycle router interface the single-router
 * tests drive: a thin adapter over Router::routeCore, which stays the
 * one arbitration entry point in src/.
 */

#ifndef FT_TESTS_ROUTE_ONCE_HPP
#define FT_TESTS_ROUTE_ONCE_HPP

#include <array>
#include <optional>

#include "noc/router.hpp"

namespace fasttrack {

/** Link-register contents feeding a router, indexed by InPort (wEx,
 *  nEx, wSh, nSh). */
using RouterInputs = std::array<std::optional<Packet>, 4>;

/** Outcome of one cycle of arbitration. */
struct RouteResult
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
 * Route one cycle at @p router.
 * @param inputs in-flight packets on the four link inputs; consumed.
 * @param pe_offer packet the client wants to inject, if any.
 * @param exit_ok whether the client can accept a delivery this cycle.
 * @param now current cycle (stamped on accepted injections).
 * @param stats measurement sink.
 */
inline RouteResult
route(const Router &router, RouterInputs &inputs,
      const std::optional<Packet> &pe_offer, bool exit_ok, Cycle now,
      NocStats &stats)
{
    std::array<Packet, 4> regs{};
    std::uint8_t mask = 0;
    for (std::size_t i = 0; i < inputs.size(); ++i) {
        if (inputs[i]) {
            regs[i] = *inputs[i];
            mask = static_cast<std::uint8_t>(mask | (1u << i));
        }
        inputs[i].reset();
    }

    RouteResult result;
    struct Sink
    {
        RouteResult &r;
        void forward(OutPort out, const Packet &p)
        {
            r.out[static_cast<std::size_t>(out)] = p;
        }
        void deliver(InPort in, const Packet &p)
        {
            r.delivered = p;
            r.deliveredFrom = in;
        }
    } sink{result};
    result.peAccepted = router.routeCore(
        regs.data(), mask, pe_offer ? &*pe_offer : nullptr, now, stats,
        [exit_ok](const Packet &) { return exit_ok; }, sink);
    return result;
}

} // namespace fasttrack

#endif // FT_TESTS_ROUTE_ONCE_HPP
