/**
 * @file
 * Shared engine scaffolding composed by every NocDevice
 * implementation: dense pending-offer registers, in-flight/pending
 * accounting, delivery measurement, the client delivery callback, the
 * drain loop, and the FT_CHECK hook plumbing. Every NoC device
 * (Network, MultiChannelNoc, SmartNetwork, InputQueuedNetwork) derives
 * from EngineCore and implements only its own step() and topology
 * queries, so none re-implements the offer slot management,
 * self-delivery short-circuit, quiescence test or drain loop.
 */

#ifndef FT_NOC_ENGINE_CORE_HPP
#define FT_NOC_ENGINE_CORE_HPP

#include <memory>
#include <vector>

#include "check/invariants.hpp"
#include "noc/noc_device.hpp"
#include "noc/packet.hpp"

namespace fasttrack {

/**
 * Common core of all NoC devices.
 *
 * State layout: pending offers live in a dense slab (one Packet slot
 * plus one occupancy byte per node) instead of
 * std::vector<std::optional<Packet>>, so the per-cycle scans in the
 * stepping cores stream over flat memory. Subclasses read the slab
 * directly through the protected members.
 */
class EngineCore : public NocDevice
{
  public:
    void setDeliverCallback(DeliverFn fn) override
    {
        deliver_ = std::move(fn);
    }

    /**
     * Offer a packet for injection at its source node. Self-addressed
     * packets are delivered immediately without entering the network.
     * A node can hold only one pending offer; the offer persists
     * across cycles until the router accepts it.
     */
    void offer(const Packet &packet) override;

    /** Whether @p node still has an un-injected pending offer. */
    bool hasPendingOffer(NodeId node) const override;

    /** Dense offer-slot occupancy backing hasPendingOffer. */
    const std::uint8_t *pendingOfferMask() const override
    {
        return offerMask_.data();
    }

    /** Withdraw an un-injected offer (multi-channel retargeting).
     *  Returns the packet; panics if no offer is pending. */
    Packet withdrawOffer(NodeId node);

    /** Run until no packets are in flight or pending, or @p max_cycles
     *  elapse. Returns true when fully drained. */
    bool drain(Cycle max_cycles) override;

    Cycle now() const override { return cycle_; }
    bool quiescent() const override
    {
        return inFlight_ == 0 && pendingOffers_ == 0;
    }

    NocStats &stats() { return stats_; }
    const NocStats &stats() const { return stats_; }
    NocStats statsSnapshot() const override { return stats_; }

    std::uint64_t inFlight() const { return inFlight_; }
    std::uint64_t pendingOffers() const { return pendingOffers_; }

    /**
     * Runtime invariant checker observing this device, or nullptr.
     * FT_CHECK builds of Network attach one automatically at
     * construction; tests may swap in a FailMode::record instance. The
     * hooks that feed it are compiled only when FT_CHECK_ENABLED is
     * set, so attaching a checker in a non-FT_CHECK build sees no
     * events.
     */
    check::InvariantChecker *checker() const { return checker_.get(); }
    void attachChecker(std::unique_ptr<check::InvariantChecker> c)
    {
        checker_ = std::move(c);
    }

  protected:
    /** @param nodes client count; sizes the offer slab. */
    explicit EngineCore(std::uint32_t nodes);

    /** Measurement bookkeeping for one delivery: in-flight count,
     *  delivered counter and the four latency/route histograms. The
     *  caller still owns checker/tracer/client notification order. */
    void recordDeliveryStats(const Packet &p, Cycle now);

    /** Invoke the client delivery callback, if any is registered. */
    void deliverToClient(const Packet &p, Cycle now)
    {
        if (deliver_)
            deliver_(p, now);
    }

    /** Hook run by drain() once the device reports quiescence (e.g.
     *  final checker verification). */
    virtual void onDrainedQuiescent() {}

    std::uint32_t nodes_ = 0;
    /** Dense pending-offer registers: slot per node... */
    std::vector<Packet> offerSlab_;
    /** ...and its occupancy byte (0 = empty, 1 = pending). */
    std::vector<std::uint8_t> offerMask_;

    NocStats stats_;
    std::unique_ptr<check::InvariantChecker> checker_;
    DeliverFn deliver_;
    Cycle cycle_ = 0;
    std::uint64_t inFlight_ = 0;
    std::uint64_t pendingOffers_ = 0;
};

} // namespace fasttrack

#endif // FT_NOC_ENGINE_CORE_HPP
