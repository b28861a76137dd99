#include "noc/geometry.hpp"

#include <algorithm>
#include <memory>

namespace fasttrack {

EngineGeometry::EngineGeometry(const NocConfig &config) : topo_(config)
{
    const std::uint32_t n = topo_.n();
    const std::uint32_t count = topo_.nodeCount();
    routers_.reserve(count);
    targets_.resize(count);

    const Cycle short_lat = 1 + config.shortLinkStages;
    const Cycle express_lat = 1 + config.expressLinkStages;
    portLatency_[static_cast<std::size_t>(OutPort::eEx)] = express_lat;
    portLatency_[static_cast<std::size_t>(OutPort::sEx)] = express_lat;
    portLatency_[static_cast<std::size_t>(OutPort::eSh)] = short_lat;
    portLatency_[static_cast<std::size_t>(OutPort::sSh)] = short_lat;
    slabDepth_ = static_cast<std::uint32_t>(
        std::max(short_lat, express_lat) + 1);

    // The routers share the device's destination -> class lookups;
    // their decision tables are process-wide (CandidateTable::forSite).
    const auto classes = std::make_shared<const RingClasses>(
        n, config.isFastTrack() ? config.d : 0);

    for (std::uint32_t id = 0; id < count; ++id) {
        const Coord c = toCoord(id, n);
        routers_.emplace_back(topo_, c, classes);

        auto &t = targets_[id];
        t[static_cast<std::size_t>(OutPort::eSh)] = {
            toNodeId(topo_.eastShort(c), n), InPort::wSh};
        t[static_cast<std::size_t>(OutPort::sSh)] = {
            toNodeId(topo_.southShort(c), n), InPort::nSh};
        if (topo_.hasExpressX(c.x)) {
            t[static_cast<std::size_t>(OutPort::eEx)] = {
                toNodeId(topo_.eastExpress(c), n), InPort::wEx};
        } else {
            t[static_cast<std::size_t>(OutPort::eEx)] = {kInvalidNode,
                                                         InPort::wEx};
        }
        if (topo_.hasExpressY(c.y)) {
            t[static_cast<std::size_t>(OutPort::sEx)] = {
                toNodeId(topo_.southExpress(c), n), InPort::nEx};
        } else {
            t[static_cast<std::size_t>(OutPort::sEx)] = {kInvalidNode,
                                                         InPort::nEx};
        }
    }
}

std::uint64_t
EngineGeometry::linkCount() const
{
    const std::uint64_t rings = 2ull * topo_.n();
    const std::uint64_t short_links = rings * topo_.n();
    const std::uint64_t express_links =
        rings * topo_.expressLinksPerRing();
    return short_links + express_links;
}

} // namespace fasttrack
