/**
 * @file
 * The cycle-accurate NoC: routers, link registers, the two-phase
 * clock-edge update, PE injection offers and client deliveries.
 */

#ifndef FT_NOC_NETWORK_HPP
#define FT_NOC_NETWORK_HPP

#include <functional>
#include <vector>

#include "common/annotations.hpp"
#include "noc/config.hpp"
#include "noc/engine_core.hpp"
#include "noc/geometry.hpp"
#include "noc/link_slab.hpp"
#include "noc/noc_stats.hpp"
#include "noc/packet.hpp"
#include "noc/router.hpp"
#include "noc/topology.hpp"
#include "telemetry/sink.hpp"

namespace fasttrack {

/**
 * One Hoplite/FastTrack network instance.
 *
 * Usage per cycle: clients call offer() (at most one pending packet
 * per node; re-offering while pending is an error), then step() once.
 * Accepted offers disappear from the pending set; deliveries invoke
 * the delivery callback. Bit-identical across runs: no internal
 * randomness, fixed router evaluation order.
 *
 * Engine layout: offer/accounting/measurement scaffolding comes from
 * EngineCore; the routing geometry (routers, class lookups, link
 * landing sites and latencies) is an EngineGeometry
 * (noc/geometry.hpp); the link registers live in a dense LinkSlab frame ring rather than
 * per-router std::optional slots, and step() dispatches to a stepping
 * core templated on whether an exit gate and a telemetry sink are
 * attached, so the common no-hook path compiles with both folded out
 * entirely (see docs/engine.md and docs/observability.md). The
 * telemetry sink is also the one hop-by-hop observer: it records a
 * route or express_hop event per traversal and an eject event per
 * delivery, and it keeps the per-link traversal counts.
 */
class Network : public EngineCore
{
  public:
    explicit Network(const NocConfig &config);

    using DeliverFn = NocDevice::DeliverFn;
    /** External per-cycle exit permission (multi-channel arbitration).
     *  Consulted when a specific packet attempts to exit, so the
     *  queried packet is always the one arbitration actually chose;
     *  must be pure within a cycle. */
    using ExitGate = std::function<bool(NodeId, const Packet &)>;

    void setExitGate(ExitGate gate) { exitGate_ = std::move(gate); }

    /** Advance one clock cycle. */
    void step() override;

    const Topology &topology() const { return geo_.topo(); }
    const NocConfig &config() const override { return geo_.config(); }

    /** Total physical links (short + express), for activity metrics. */
    std::uint64_t linkCount() const override
    {
        return geo_.linkCount();
    }
    std::uint32_t channelCount() const override { return 1; }

    /** Checkpointing (noc/engine_state.hpp): capture the complete
     *  dynamic state, or replay one captured at the same geometry.
     *  Defined in engine_state.cpp so the stepping hot path and the
     *  cold snapshot machinery stay in separate translation units. */
    bool captureState(EngineState &out) const override;
    bool restoreState(const EngineState &st) override;

  private:
    /** The stepping core; step() picks the instantiation matching the
     *  attached hooks so the hot path pays for none it doesn't use.
     *  HasTelem tracks whether a telemetry sink is installed
     *  (telemetry::installed()); the disabled instantiation contains
     *  no telemetry code at all. */
    template <bool HasGate, bool HasTelem> FT_HOT void stepImpl();

    void onDrainedQuiescent() override;

    /** Routers, class lookups, landing sites, link latencies. */
    EngineGeometry geo_;
    /** Dense link registers: ring of frames indexed by arrival cycle. */
    LinkSlab slab_;

    ExitGate exitGate_;
};

} // namespace fasttrack

#endif // FT_NOC_NETWORK_HPP
