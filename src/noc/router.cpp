#include "noc/router.hpp"

#include "common/logging.hpp"

namespace fasttrack {

RouterSite
Router::siteFor(const Topology &topology, Coord pos)
{
    const NocConfig &cfg = topology.config();
    RouterSite site;
    site.n = cfg.n;
    site.d = cfg.isFastTrack() ? cfg.d : 0;
    site.variant = cfg.variant;
    site.hasEx = topology.hasExpressX(pos.x);
    site.hasEy = topology.hasExpressY(pos.y);
    site.wrapAligned = topology.wrapAligned();
    site.allowExpressTurn = cfg.allowExpressTurn;
    site.allowUpgrade = cfg.allowUpgrade;
    return site;
}

RingClasses::RingClasses(std::uint32_t n, std::uint32_t d)
    : xy(static_cast<std::size_t>(n) * n), cls(2 * std::size_t{n})
{
    for (NodeId id = 0; id < xy.size(); ++id) {
        const Coord c = toCoord(id, n);
        xy[id] = static_cast<std::uint32_t>(c.x) |
                 (static_cast<std::uint32_t>(c.y) << 16);
    }
    for (std::uint32_t offset = 0; offset < cls.size(); ++offset)
        cls[offset] = CandidateTable::classOf(offset % n, d);
}

Router::Router(const Topology &topology, Coord pos,
               std::shared_ptr<const RingClasses> classes)
    : pos_(pos), site_(siteFor(topology, pos)),
      classes_(std::move(classes))
{
    if (!classes_)
        classes_ = std::make_shared<RingClasses>(site_.n, site_.d);
    table_ = &CandidateTable::forSite(site_);
    xy_ = classes_->xy.data();
    clsX_ = classes_->cls.data() + (site_.n - pos.x);
    clsY_ = classes_->cls.data() + (site_.n - pos.y);
    flip_ = topology.config().turnPriority ? 0 : 1;
}

} // namespace fasttrack
