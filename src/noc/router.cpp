#include "noc/router.hpp"

#include "check/invariants.hpp"
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

Router::Result
Router::route(Inputs &inputs, const std::optional<Packet> &pe_offer,
              bool exit_ok, Cycle now, NocStats &stats) const
{
    // Adapter: marshal the optional-based interface into the dense
    // registers routeCore expects, and collect its sink events back
    // into a Result.
    std::array<Packet, 4> regs{};
    std::uint8_t mask = 0;
    for (std::size_t i = 0; i < inputs.size(); ++i) {
        if (inputs[i]) {
            regs[i] = *inputs[i];
            mask = static_cast<std::uint8_t>(mask | (1u << i));
        }
    }

    Result result;
    struct ResultSink
    {
        Result &r;
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

    result.peAccepted = routeCore(
        regs.data(), mask, pe_offer ? &*pe_offer : nullptr, now, stats,
        [exit_ok](const Packet &) { return exit_ok; }, sink);

    // Inputs were consumed by the router this cycle.
    for (auto &slot : inputs)
        slot.reset();

#if FT_CHECK_ENABLED
    std::size_t check_inputs = 0;
    for (std::uint8_t m = mask; m; m &= static_cast<std::uint8_t>(m - 1))
        ++check_inputs;
    std::size_t check_outputs = 0;
    for (const auto &o : result.out) {
        if (o)
            ++check_outputs;
    }
    check::verifyRouterResult(
        pos_, check_inputs, pe_offer.has_value(), result.peAccepted,
        check_outputs, result.delivered.has_value(),
        result.out[static_cast<std::size_t>(OutPort::eEx)].has_value() &&
            !site_.hasEx,
        result.out[static_cast<std::size_t>(OutPort::sEx)].has_value() &&
            !site_.hasEy);
#endif

    return result;
}

} // namespace fasttrack
