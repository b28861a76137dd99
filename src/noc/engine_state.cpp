/**
 * @file
 * EngineState wire codecs and the Network capture/restore paths.
 * Lives apart from network.cpp so the stepping hot path and the
 * (cold) checkpoint machinery never share a translation unit.
 */

#include "noc/engine_state.hpp"

#include <algorithm>
#include <utility>
#include <vector>

#include "common/logging.hpp"
#include "noc/network.hpp"

namespace fasttrack {

namespace {

/** Upper bounds a decoder accepts before allocating: generous for
 *  any real configuration (n <= 1024 meshes), tight enough that a
 *  hostile length field cannot drive a huge allocation. */
constexpr std::uint32_t kMaxNodes = 1u << 20;
constexpr std::uint32_t kMaxSlabDepth = 4096;

unsigned
popcount4(std::uint8_t m)
{
    return static_cast<unsigned>(__builtin_popcount(m & 0x0fu));
}

} // namespace

void
EngineState::trim()
{
    stats.reset();
    linkTraversals.clear();
    nodeCounters.clear();
    trimmed = true;
}

bool
EngineState::consistent() const
{
    if (nodes == 0 || nodes > kMaxNodes || slabDepth < 2 ||
        slabDepth > kMaxSlabDepth)
        return false;
    if (slabMasks.size() !=
        static_cast<std::size_t>(nodes) * slabDepth)
        return false;
    std::uint64_t occupied = 0;
    for (std::uint8_t m : slabMasks) {
        if (m & 0xf0u)
            return false; // only four input ports exist
        occupied += popcount4(m);
    }
    if (occupied != slabPackets.size())
        return false;
    for (const Packet &packet : slabPackets) {
        if (packet.src >= nodes || packet.dst >= nodes)
            return false;
    }
    NodeId prev = kInvalidNode;
    for (const auto &[node, packet] : offers) {
        if (node >= nodes || packet.src != node || packet.dst >= nodes)
            return false;
        if (prev != kInvalidNode && node <= prev)
            return false; // ascending, no duplicate slots
        prev = node;
    }
    if (trimmed)
        return linkTraversals.empty() && nodeCounters.empty();
    return linkTraversals.size() ==
               static_cast<std::size_t>(nodes) * kNumOutPorts &&
           nodeCounters.size() == nodes;
}

// --- packet / histogram / stats codecs --------------------------------

void
encodePacket(net::WireWriter &w, const Packet &p)
{
    w.u64(p.id);
    w.u32(p.src);
    w.u32(p.dst);
    w.u64(p.created);
    w.u64(p.injected);
    w.u64(p.tag);
    w.u16(p.shortHops);
    w.u16(p.expressHops);
    w.u16(p.deflections);
    w.u8(p.expressClass ? 1 : 0);
}

bool
decodePacket(net::WireReader &r, Packet &p)
{
    std::uint8_t express = 0;
    if (!r.u64(p.id) || !r.u32(p.src) || !r.u32(p.dst) ||
        !r.u64(p.created) || !r.u64(p.injected) || !r.u64(p.tag) ||
        !r.u16(p.shortHops) || !r.u16(p.expressHops) ||
        !r.u16(p.deflections) || !r.u8(express))
        return false;
    if (express > 1)
        return false;
    p.expressClass = express != 0;
    return true;
}

void
encodeHistogram(net::WireWriter &w, const Histogram &h)
{
    const auto &bins = h.bins();
    w.u64(bins.size());
    for (const auto &[value, count] : bins) {
        w.u64(value);
        w.u64(count);
    }
}

bool
decodeHistogram(net::WireReader &r, Histogram &h)
{
    std::uint64_t nbins = 0;
    if (!r.u64(nbins))
        return false;
    // nbins comes from the input: reserve no more bins than the
    // remaining bytes can hold (16 bytes each).
    std::vector<Histogram::Bin> bins;
    bins.reserve(static_cast<std::size_t>(
        std::min<std::uint64_t>(nbins, r.remaining() / 16)));
    for (std::uint64_t i = 0; i < nbins; ++i) {
        std::uint64_t value = 0, count = 0;
        if (!r.u64(value) || !r.u64(count) || count == 0)
            return false;
        bins.emplace_back(value, count);
    }
    h.addBins(std::move(bins));
    return true;
}

void
encodeNocStats(net::WireWriter &w, const NocStats &s)
{
    w.u64(s.injected);
    w.u64(s.delivered);
    w.u64(s.selfDelivered);
    w.u64(s.shortHopTraversals);
    w.u64(s.expressHopTraversals);
    for (std::uint64_t v : s.deflectionsByPort)
        w.u64(v);
    for (std::uint64_t v : s.misroutesByPort)
        w.u64(v);
    w.u64(s.laneDeflections);
    w.u64(s.exitBlocked);
    w.u64(s.injectionBlockedCycles);
    encodeHistogram(w, s.totalLatency);
    encodeHistogram(w, s.networkLatency);
    encodeHistogram(w, s.hopCount);
    encodeHistogram(w, s.deflectionCount);
}

bool
decodeNocStats(net::WireReader &r, NocStats &s)
{
    bool ok = r.u64(s.injected) && r.u64(s.delivered) &&
              r.u64(s.selfDelivered) && r.u64(s.shortHopTraversals) &&
              r.u64(s.expressHopTraversals);
    for (std::uint64_t &v : s.deflectionsByPort)
        ok = ok && r.u64(v);
    for (std::uint64_t &v : s.misroutesByPort)
        ok = ok && r.u64(v);
    return ok && r.u64(s.laneDeflections) && r.u64(s.exitBlocked) &&
           r.u64(s.injectionBlockedCycles) &&
           decodeHistogram(r, s.totalLatency) &&
           decodeHistogram(r, s.networkLatency) &&
           decodeHistogram(r, s.hopCount) &&
           decodeHistogram(r, s.deflectionCount);
}

// --- engine-state codec ------------------------------------------------

void
encodeEngineState(net::WireWriter &w, const EngineState &st)
{
    FT_ASSERT(st.consistent(), "encoding an inconsistent EngineState");
    w.u64(st.cycle);
    w.u32(st.nodes);
    w.u32(st.slabDepth);
    w.u32(static_cast<std::uint32_t>(st.offers.size()));
    for (const auto &[node, packet] : st.offers) {
        w.u32(node);
        encodePacket(w, packet);
    }
    w.bytes(st.slabMasks.data(), st.slabMasks.size());
    w.u32(static_cast<std::uint32_t>(st.slabPackets.size()));
    for (const Packet &p : st.slabPackets)
        encodePacket(w, p);
    w.u8(st.trimmed ? 1 : 0);
    if (st.trimmed)
        return;
    encodeNocStats(w, st.stats);
    for (std::uint64_t v : st.linkTraversals)
        w.u64(v);
    for (const EngineState::NodeCounters &c : st.nodeCounters) {
        w.u64(c.injected);
        w.u64(c.delivered);
        w.u64(c.blockedCycles);
    }
}

bool
decodeEngineState(net::WireReader &r, EngineState &out)
{
    out = EngineState{};
    if (!r.u64(out.cycle) || !r.u32(out.nodes) || !r.u32(out.slabDepth))
        return false;
    if (out.nodes == 0 || out.nodes > kMaxNodes || out.slabDepth < 2 ||
        out.slabDepth > kMaxSlabDepth)
        return false;

    std::uint32_t offer_count = 0;
    if (!r.u32(offer_count) || offer_count > out.nodes)
        return false;
    out.offers.reserve(offer_count);
    for (std::uint32_t i = 0; i < offer_count; ++i) {
        NodeId node = kInvalidNode;
        Packet p;
        if (!r.u32(node) || !decodePacket(r, p))
            return false;
        out.offers.emplace_back(node, p);
    }

    const std::size_t mask_bytes =
        static_cast<std::size_t>(out.nodes) * out.slabDepth;
    out.slabMasks.resize(mask_bytes);
    if (!r.bytes(out.slabMasks.data(), mask_bytes))
        return false;

    std::uint32_t packet_count = 0;
    if (!r.u32(packet_count) ||
        packet_count > mask_bytes * LinkSlab::kPorts)
        return false;
    out.slabPackets.resize(packet_count);
    for (Packet &p : out.slabPackets) {
        if (!decodePacket(r, p))
            return false;
    }

    std::uint8_t trimmed = 0;
    if (!r.u8(trimmed) || trimmed > 1)
        return false;
    out.trimmed = trimmed != 0;
    if (!out.trimmed) {
        if (!decodeNocStats(r, out.stats))
            return false;
        out.linkTraversals.resize(
            static_cast<std::size_t>(out.nodes) * kNumOutPorts);
        for (std::uint64_t &v : out.linkTraversals) {
            if (!r.u64(v))
                return false;
        }
        out.nodeCounters.resize(out.nodes);
        for (EngineState::NodeCounters &c : out.nodeCounters) {
            if (!r.u64(c.injected) || !r.u64(c.delivered) ||
                !r.u64(c.blockedCycles))
                return false;
        }
    }
    return out.consistent();
}

// --- Network capture/restore ------------------------------------------

bool
Network::captureState(EngineState &out) const
{
    const std::uint32_t count = geo_.nodeCount();
    const std::uint32_t depth = slab_.depth();
    out = EngineState{};
    out.cycle = cycle_;
    out.nodes = count;
    out.slabDepth = depth;

    for (NodeId node = 0; node < count; ++node) {
        if (offerMask_[node])
            out.offers.emplace_back(node, offerSlab_[node]);
    }
    FT_ASSERT(out.offers.size() == pendingOffers_,
              "offer slab out of sync with pendingOffers counter");

    out.slabMasks.reserve(static_cast<std::size_t>(count) * depth);
    for (std::uint32_t frame = 0; frame < depth; ++frame) {
        for (std::uint32_t node = 0; node < count; ++node) {
            const std::uint8_t m = slab_.mask(frame, node);
            out.slabMasks.push_back(m);
            if (!m)
                continue;
            const Packet *row = slab_.row(frame, node);
            for (unsigned bit = 0; bit < LinkSlab::kPorts; ++bit) {
                if (m & (1u << bit))
                    out.slabPackets.push_back(row[bit]);
            }
        }
    }
    FT_ASSERT(out.slabPackets.size() == inFlight_,
              "link slab out of sync with inFlight counter");

    out.stats = stats_;
    out.linkTraversals.reserve(
        static_cast<std::size_t>(count) * kNumOutPorts);
    for (const auto &row : linkTraversals_) {
        for (std::uint64_t v : row)
            out.linkTraversals.push_back(v);
    }
    out.nodeCounters.reserve(count);
    for (const Network::NodeCounters &c : nodeCounters_)
        out.nodeCounters.push_back({c.injected, c.delivered,
                                    c.blockedCycles});
    return true;
}

bool
Network::restoreState(const EngineState &st)
{
    const std::uint32_t count = geo_.nodeCount();
    if (st.nodes != count || st.slabDepth != slab_.depth()) {
        FT_WARN("engine-state restore refused: snapshot is for ",
                st.nodes, " node(s) depth ", st.slabDepth,
                ", device has ", count, " node(s) depth ",
                slab_.depth());
        return false;
    }
    if (!st.consistent()) {
        FT_WARN("engine-state restore refused: inconsistent state");
        return false;
    }

    cycle_ = st.cycle;

#if FT_CHECK_ENABLED
    if (checker_)
        checker_->beginRestore(cycle_);
#endif

    offerMask_.assign(count, 0);
    for (const auto &[node, packet] : st.offers) {
        offerSlab_[node] = packet;
        offerMask_[node] = 1;
#if FT_CHECK_ENABLED
        if (checker_)
            checker_->seedPendingOffer(packet);
#endif
    }
    pendingOffers_ = st.offers.size();

    slab_.init(count, st.slabDepth);
    std::size_t next = 0;
    for (std::uint32_t frame = 0; frame < st.slabDepth; ++frame) {
        for (std::uint32_t node = 0; node < count; ++node) {
            const std::uint8_t m =
                st.slabMasks[static_cast<std::size_t>(frame) * count +
                             node];
            for (unsigned bit = 0; bit < LinkSlab::kPorts; ++bit) {
                if (!(m & (1u << bit)))
                    continue;
                const Packet &p = st.slabPackets[next++];
                slab_.place(frame, node, static_cast<InPort>(bit), p);
#if FT_CHECK_ENABLED
                if (checker_)
                    checker_->seedInFlightPacket(p, node);
#endif
            }
        }
    }
    inFlight_ = st.slabPackets.size();

    if (st.trimmed) {
        stats_.reset();
        linkTraversals_.assign(count, {});
        nodeCounters_.assign(count, {});
    } else {
        stats_ = st.stats;
        for (std::uint32_t node = 0; node < count; ++node) {
            for (std::size_t port = 0; port < kNumOutPorts; ++port)
                linkTraversals_[node][port] =
                    st.linkTraversals[static_cast<std::size_t>(node) *
                                          kNumOutPorts +
                                      port];
            const EngineState::NodeCounters &c = st.nodeCounters[node];
            nodeCounters_[node] = {c.injected, c.delivered,
                                   c.blockedCycles};
        }
    }

#if FT_CHECK_ENABLED
    if (checker_)
        checker_->finishRestore(stats_.delivered, stats_.selfDelivered,
                                cycle_);
#endif
    return true;
}

} // namespace fasttrack
