#include "noc/smart.hpp"

#include <bit>
#include <optional>

#include "check/invariants.hpp"
#include "common/logging.hpp"

namespace fasttrack {

SmartNetwork::SmartNetwork(std::uint32_t n, std::uint32_t hpc_max)
    : EngineCore(n * n), geo_(NocConfig::hoplite(n)), hpcMax_(hpc_max)
{
    FT_ASSERT(hpc_max >= 1, "HPC_max must be >= 1");
    const std::uint32_t count = geo_.nodeCount();
    regs_.resize(count);
    mask_.assign(count, 0);
    nextRegs_.resize(count);
    nextMask_.assign(count, 0);
    bypassLengths_.assign(hpcMax_, 0);
}

NodeId
SmartNetwork::eastOf(NodeId id) const
{
    return geo_.targets(id)[static_cast<std::size_t>(OutPort::eSh)].router;
}

NodeId
SmartNetwork::southOf(NodeId id) const
{
    return geo_.targets(id)[static_cast<std::size_t>(OutPort::sSh)].router;
}

void
SmartNetwork::step()
{
    const std::uint32_t count = geo_.nodeCount();
    const std::vector<Router> &routers = geo_.routers();

    struct PendingTransfer
    {
        Packet packet;
        NodeId from;
        bool south; ///< false = East
    };
    std::vector<PendingTransfer> transfers;
    // Link usage this cycle: [router][0]=E link, [1]=S link.
    std::vector<std::array<bool, 2>> link_used(count, {false, false});

    // What one router's arbitration hands back.
    struct Sink
    {
        std::array<std::optional<Packet>, kNumOutPorts> out;
        std::optional<Packet> delivered;
        void forward(OutPort port, const Packet &p)
        {
            out[static_cast<std::size_t>(port)] = p;
        }
        void deliver(InPort, const Packet &p) { delivered = p; }
    };

    // Phase 1: ordinary Hoplite arbitration at every router.
    for (std::uint32_t id = 0; id < count; ++id) {
        Sink sink;
        const bool accepted = routers[id].routeCore(
            regs_[id].data(), mask_[id],
            offerMask_[id] ? &offerSlab_[id] : nullptr, cycle_, stats_,
            [](const Packet &) { return true; }, sink);
#if FT_CHECK_ENABLED
        std::size_t outputs = 0;
        for (const auto &o : sink.out)
            outputs += o.has_value();
        const RouterSite &site = routers[id].site();
        check::verifyRouterResult(
            routers[id].pos(),
            static_cast<std::size_t>(std::popcount(mask_[id])),
            offerMask_[id] != 0, accepted, outputs,
            sink.delivered.has_value(),
            sink.out[static_cast<std::size_t>(OutPort::eEx)] &&
                !site.hasEx,
            sink.out[static_cast<std::size_t>(OutPort::sEx)] &&
                !site.hasEy);
#endif
        mask_[id] = 0;
        if (accepted) {
            offerMask_[id] = 0;
            --pendingOffers_;
            ++inFlight_;
        }
        if (sink.delivered) {
            const Packet &p = *sink.delivered;
            recordDeliveryStats(p, cycle_);
            deliverToClient(p, cycle_);
        }
        auto &e_slot = sink.out[static_cast<std::size_t>(OutPort::eSh)];
        if (e_slot) {
            link_used[id][0] = true;
            transfers.push_back({std::move(*e_slot), id, false});
        }
        auto &s_slot = sink.out[static_cast<std::size_t>(OutPort::sSh)];
        if (s_slot) {
            link_used[id][1] = true;
            transfers.push_back({std::move(*s_slot), id, true});
        }
    }

    // Phase 2: SMART bypass extension - each launched packet tunnels
    // through further routers while it wants to continue straight and
    // the next link segment is idle. Greedy in router-scan order,
    // matching a deterministic SSR priority.
    const std::uint32_t n = geo_.topo().n();
    for (PendingTransfer &t : transfers) {
        NodeId land = t.south ? southOf(t.from) : eastOf(t.from);
        std::uint32_t chain = 1;
        while (chain < hpcMax_) {
            const Coord here = toCoord(land, n);
            const Coord dst = toCoord(t.packet.dst, n);
            const std::uint32_t dx = ringDistance(here.x, dst.x, n);
            const std::uint32_t dy = ringDistance(here.y, dst.y, n);
            const bool continues =
                t.south ? (dx == 0 && dy > 0) : (dx > 0);
            if (!continues)
                break;
            auto &used = link_used[land][t.south ? 1 : 0];
            if (used)
                break;
            used = true;
            ++t.packet.shortHops;
            ++stats_.shortHopTraversals;
            land = t.south ? southOf(land) : eastOf(land);
            ++chain;
        }
        ++bypassLengths_[chain - 1];
        const auto port = static_cast<unsigned>(
            t.south ? InPort::nSh : InPort::wSh);
        FT_ASSERT(!(nextMask_[land] & (1u << port)),
                  "SMART landing collision");
        nextMask_[land] =
            static_cast<std::uint8_t>(nextMask_[land] | (1u << port));
        nextRegs_[land][port] = t.packet;
    }

    regs_.swap(nextRegs_);
    mask_.swap(nextMask_);
    ++cycle_;
}

std::uint64_t
SmartNetwork::linkCount() const
{
    return 2ull * geo_.topo().n() * geo_.topo().n();
}

} // namespace fasttrack
