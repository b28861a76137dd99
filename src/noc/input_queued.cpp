#include "noc/input_queued.hpp"

#include <algorithm>

#include "common/logging.hpp"

namespace fasttrack {

InputQueuedNetwork::InputQueuedNetwork(std::uint32_t n, bool torus,
                                       std::uint32_t vc_count,
                                       std::uint32_t fifo_depth)
    : EngineCore(n * n), n_(n), torus_(torus), vcCount_(vc_count),
      fifoDepth_(fifo_depth)
{
    FT_ASSERT(n >= 2, "side must be >= 2");
    FT_ASSERT(!torus || vc_count >= 2,
              "dateline deadlock avoidance needs >= 2 VCs");
    FT_ASSERT(fifo_depth >= 1, "FIFO depth must be >= 1");
    config_ = NocConfig::hoplite(n); // size carrier for NocDevice
    routers_.resize(n * n);
    for (RouterState &router : routers_)
        router.vcs.resize(vcCount_);
}

InputQueuedNetwork
InputQueuedNetwork::mesh(std::uint32_t n, std::uint32_t fifo_depth)
{
    return InputQueuedNetwork(n, false, 1, fifo_depth);
}

InputQueuedNetwork
InputQueuedNetwork::torus(std::uint32_t n, std::uint32_t vc_count,
                          std::uint32_t fifo_depth)
{
    return InputQueuedNetwork(n, true, vc_count, fifo_depth);
}

InputQueuedNetwork::Port
InputQueuedNetwork::routeOutput(Coord here, Coord dst) const
{
    // Whether to go the positive way (east, south): the only way on
    // the mesh, the shorter way around the ring on the torus (ties go
    // positive).
    const auto positive = [this](std::uint32_t from, std::uint32_t to) {
        if (!torus_)
            return to > from;
        const std::uint32_t dist = ringDistance(from, to, n_);
        return dist <= n_ - dist;
    };
    if (here.x != dst.x)
        return positive(here.x, dst.x) ? east : west;
    if (here.y != dst.y)
        return positive(here.y, dst.y) ? south : north;
    return local;
}

NodeId
InputQueuedNetwork::neighbor(Coord here, Port out) const
{
    const auto ring = [this](std::uint16_t v, std::uint32_t by) {
        return static_cast<std::uint16_t>((v + by) % n_);
    };
    Coord to = here;
    switch (out) {
      case north:
        to.y = ring(here.y, n_ - 1);
        break;
      case south:
        to.y = ring(here.y, 1);
        break;
      case east:
        to.x = ring(here.x, 1);
        break;
      case west:
        to.x = ring(here.x, n_ - 1);
        break;
      default:
        return kInvalidNode;
    }
    return toNodeId(to, n_);
}

bool
InputQueuedNetwork::atEdge(Coord here, Port out) const
{
    switch (out) {
      case north:
        return here.y == 0;
      case south:
        return here.y + 1u == n_;
      case east:
        return here.x + 1u == n_;
      case west:
        return here.x == 0;
      default:
        return false;
    }
}

void
InputQueuedNetwork::step()
{
    struct Move
    {
        NodeId from;
        Port in;
        std::uint32_t vc;
        NodeId to; ///< kInvalidNode = delivery
        Port to_in = local;
        std::uint32_t to_vc = 0;
    };
    std::vector<Move> moves;

    // Input port a packet lands on after leaving through an output.
    static constexpr Port kOpposite[] = {south, north, west, east,
                                         local};

    // Phase 1: per-output round-robin arbitration over (port, vc)
    // requesters, using start-of-cycle FIFO occupancies as credits.
    const std::uint32_t pairs = portCount * vcCount_;
    for (NodeId id = 0; id < routers_.size(); ++id) {
        RouterState &router = routers_[id];
        const Coord here = toCoord(id, n_);
        for (std::uint8_t o = 0; o < portCount; ++o) {
            const auto out = static_cast<Port>(o);
            const bool is_link = out != local;
            const bool edge = atEdge(here, out);
            if (edge && !torus_)
                continue; // mesh edge: no such link
            const NodeId to = neighbor(here, out);
            const Port to_in = kOpposite[out];

            for (std::uint32_t scan = 0; scan < pairs; ++scan) {
                const std::uint32_t pair = (router.rr[out] + scan) % pairs;
                const auto in = static_cast<Port>(pair % portCount);
                const std::uint32_t vc = pair / portCount;
                const auto &fifo = router.vcs[vc][in];
                if (fifo.empty())
                    continue;
                if (routeOutput(here, toCoord(fifo.front().dst, n_)) !=
                    out) {
                    continue;
                }
                std::uint32_t to_vc = 0;
                if (is_link) {
                    // Entering a new dimension restarts at VC0; the
                    // dateline bumps to the escape VC.
                    const bool entering_y =
                        (out == north || out == south) &&
                        (in == east || in == west || in == local);
                    const bool entering_x =
                        (out == east || out == west) && in == local;
                    to_vc = (entering_x || entering_y) ? 0 : vc;
                    if (edge)
                        to_vc = std::min(to_vc + 1, vcCount_ - 1);
                    if (routers_[to].vcs[to_vc][to_in].size() >=
                        fifoDepth_) {
                        continue; // no credit
                    }
                }
                moves.push_back({id, in, vc, to, to_in, to_vc});
                router.rr[out] = (pair + 1) % pairs;
                break;
            }
        }
    }

    // Phase 2: apply grants (pops are unique per input FIFO since a
    // head requests exactly one output).
    for (const Move &m : moves) {
        auto &fifo = routers_[m.from].vcs[m.vc][m.in];
        Packet p = std::move(fifo.front());
        fifo.pop_front();
        if (m.to == kInvalidNode) {
            recordDeliveryStats(p, cycle_);
            deliverToClient(p, cycle_);
        } else {
            if (m.to_vc > m.vc)
                ++datelines_;
            ++p.shortHops;
            ++stats_.shortHopTraversals;
            routers_[m.to].vcs[m.to_vc][m.to_in].push_back(
                std::move(p));
        }
    }

    // Phase 3: client injection into VC0 of the local port.
    for (NodeId id = 0; id < routers_.size(); ++id) {
        if (!offerMask_[id])
            continue;
        auto &fifo = routers_[id].vcs[0][local];
        if (fifo.size() >= fifoDepth_) {
            ++stats_.injectionBlockedCycles;
            continue;
        }
        Packet p = offerSlab_[id];
        p.injected = cycle_;
        fifo.push_back(std::move(p));
        offerMask_[id] = 0;
        --pendingOffers_;
        ++inFlight_;
        ++stats_.injected;
    }

    ++cycle_;
}

std::uint64_t
InputQueuedNetwork::linkCount() const
{
    // Two directed links per adjacent pair in each dimension; the
    // torus's wraparound pairs make that 4 per router.
    return torus_ ? 4ull * n_ * n_ : 4ull * n_ * (n_ - 1);
}

} // namespace fasttrack
