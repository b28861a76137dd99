#include "noc/network.hpp"

#include "common/logging.hpp"

namespace fasttrack {

Network::Network(const NocConfig &config)
    : EngineCore(config.pes()), geo_(config)
{
#if FT_CHECK_ENABLED
    checker_ = std::make_unique<check::InvariantChecker>(
        check::geometryOf(geo_.config()));
#endif
    slab_.init(geo_.nodeCount(), geo_.slabDepth());
}

template <bool HasGate, bool HasTelem>
void
Network::stepImpl()
{
    // Resolved once per cycle; every emit below goes through this
    // thread's private log (wait-free, see telemetry/sink.hpp).
    telemetry::ThreadLog *tlog = nullptr;
    if constexpr (HasTelem)
        tlog = &telemetry::installed()->local();
    (void)tlog;

    const std::uint32_t count = geo_.nodeCount();
    const std::uint32_t cur = slab_.frameOf(cycle_);
    // Landing frame per output lane, computed once per cycle.
    std::array<std::uint32_t, kNumOutPorts> dest_frame;
    for (std::size_t port = 0; port < kNumOutPorts; ++port)
        dest_frame[port] =
            slab_.frameOf(cycle_ + geo_.portLatency()[port]);

    /** Lands routeCore's forwards in the slab and collects the outcome
     *  so the engine can emit checker and telemetry events in the
     *  architected order (injection, delivery, then traversals by port
     *  index). */
    struct Sink
    {
        Network *net;
        std::uint32_t id;
        const std::uint32_t *dest_frame;
        /** Slab slot each forwarded packet landed in, by OutPort. */
        std::array<Packet *, kNumOutPorts> placed{};
        /** Delivered packet (points into the current slab row). */
        const Packet *delivered = nullptr;

        /** Always inlined: -O2 otherwise calls the injection's forward
         *  out of line, once per injected packet on the no-hook path. */
        [[gnu::always_inline]] void forward(OutPort out, const Packet &p)
        {
            const auto idx = static_cast<std::size_t>(out);
            const TransferTarget &t = net->geo_.targets(id)[idx];
            FT_ASSERT(t.router != kInvalidNode,
                      "forward onto a non-existent link");
            placed[idx] = net->slab_.place(dest_frame[idx], t.router,
                                           t.port, p);
        }
        void deliver(InPort, const Packet &p) { delivered = &p; }
    };

    const std::vector<Router> &routers = geo_.routers();
    for (std::uint32_t id = 0; id < count; ++id) {
        const std::uint8_t in_mask = slab_.mask(cur, id);
        const bool has_offer = offerMask_[id] != 0;
        if (in_mask == 0 && !has_offer)
            continue; // idle router: nothing to arbitrate

        Sink sink{this, id, dest_frame.data(), {}, nullptr};
        const auto gate = [&](const Packet &p) {
            if constexpr (HasGate)
                return exitGate_(id, p);
            (void)p;
            return true;
        };

        // Deflections are attributed inside routeCore; snapshot the
        // per-port counters around the call to recover which input
        // ports lost arbitration this cycle.
        std::array<std::uint64_t, kNumInPorts> defl_before{};
        if constexpr (HasTelem)
            defl_before = stats_.deflectionsByPort;

        const bool pe_accepted = routers[id].routeCore(
            slab_.row(cur, id), in_mask,
            has_offer ? &offerSlab_[id] : nullptr, cycle_, stats_, gate,
            sink);

        if constexpr (HasTelem) {
            for (std::size_t in = 0; in < kNumInPorts; ++in) {
                const std::uint64_t d =
                    stats_.deflectionsByPort[in] - defl_before[in];
                if (d) {
                    FT_TELEM(HasTelem, tlog,
                             telemetry::EventKind::deflect, cycle_, id,
                             static_cast<std::uint8_t>(in), 0,
                             static_cast<std::uint16_t>(d));
                }
            }
        }

#if FT_CHECK_ENABLED
        {
            std::size_t check_inputs = 0;
            for (std::uint8_t m = in_mask; m;
                 m &= static_cast<std::uint8_t>(m - 1))
                ++check_inputs;
            std::size_t check_outputs = 0;
            for (const Packet *p : sink.placed) {
                if (p)
                    ++check_outputs;
            }
            const RouterSite &site = routers[id].site();
            check::verifyRouterResult(
                toCoord(id, geo_.topo().n()), check_inputs, has_offer,
                pe_accepted, check_outputs, sink.delivered != nullptr,
                sink.placed[static_cast<std::size_t>(OutPort::eEx)] &&
                    !site.hasEx,
                sink.placed[static_cast<std::size_t>(OutPort::sEx)] &&
                    !site.hasEy);
        }
#endif

        if (pe_accepted) {
#if FT_CHECK_ENABLED
            // The checker sees the original offer, before the router
            // stamped the injection cycle onto its copy.
            if (checker_)
                checker_->onInject(offerSlab_[id], id, cycle_);
#endif
            FT_TELEM(HasTelem, tlog, telemetry::EventKind::inject,
                     cycle_, id, telemetry::kNoPort, offerSlab_[id].id,
                     0);
            offerMask_[id] = 0;
            --pendingOffers_;
            ++inFlight_;
        } else if (has_offer) {
            // Offer keeps waiting; latency accrues via created time.
            FT_TELEM(HasTelem, tlog,
                     telemetry::EventKind::backlogStall, cycle_, id,
                     telemetry::kNoPort, offerSlab_[id].id, 0);
        }

        if (sink.delivered) {
            const Packet &p = *sink.delivered;
            FT_ASSERT(p.dst == id, "delivery at wrong node");
            recordDeliveryStats(p, cycle_);
#if FT_CHECK_ENABLED
            if (checker_)
                checker_->onDelivery(p, id, cycle_);
#endif
            if constexpr (HasTelem) {
                const Cycle lat = cycle_ - p.created;
                FT_TELEM(HasTelem, tlog, telemetry::EventKind::eject,
                         cycle_, id, telemetry::kNoPort, p.id,
                         static_cast<std::uint16_t>(
                             std::min<Cycle>(lat, 0xffff)));
            }
            deliverToClient(p, cycle_);
        }

        // Traversal events: the no-hook instantiation has no per-port
        // loop at all.
        if constexpr (HasTelem || check::kHooksEnabled) {
            for (std::size_t port = 0; port < kNumOutPorts; ++port) {
                const Packet *p = sink.placed[port];
                if (!p)
                    continue;
#if FT_CHECK_ENABLED
                if (checker_)
                    checker_->onTraversal(*p, id,
                                          static_cast<OutPort>(port),
                                          cycle_);
#endif
                if constexpr (HasTelem) {
                    // aux: the packet's deflections so far.
                    const auto kind =
                        isExpress(static_cast<OutPort>(port))
                            ? telemetry::EventKind::expressHop
                            : telemetry::EventKind::route;
                    FT_TELEM(HasTelem, tlog, kind, cycle_, id,
                             static_cast<std::uint8_t>(port), p->id,
                             p->deflections);
                }
            }
        }

        // This router's inputs are consumed; forwards all landed in
        // future frames, so clearing cannot erase a new arrival.
        slab_.clearMask(cur, id);
    }

    ++cycle_;
#if FT_CHECK_ENABLED
    if (checker_)
        checker_->onCycleEnd(cycle_, inFlight_, pendingOffers_);
#endif
}

void
Network::step()
{
    // One relaxed atomic load per cycle is the entire cost of the
    // telemetry hook when no sink is installed.
    const bool telem = telemetry::installed() != nullptr;
    if (exitGate_) {
        if (telem)
            stepImpl<true, true>();
        else
            stepImpl<true, false>();
    } else {
        if (telem)
            stepImpl<false, true>();
        else
            stepImpl<false, false>();
    }
}

void
Network::onDrainedQuiescent()
{
#if FT_CHECK_ENABLED
    if (checker_)
        checker_->verifyQuiescent(cycle_);
#endif
}

} // namespace fasttrack
