/**
 * @file
 * EngineState wire codecs and the Network capture/restore paths.
 * Lives apart from network.cpp so the stepping hot path and the
 * (cold) checkpoint machinery never share a translation unit.
 */

#include "noc/engine_state.hpp"

#include <utility>
#include <vector>

#include "common/logging.hpp"
#include "net/codec.hpp"
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
    return true;
}

// --- engine-state codec ------------------------------------------------

void
encodeEngineState(net::WireWriter &w, const EngineState &st)
{
    FT_ASSERT(st.consistent(), "encoding an inconsistent EngineState");
    put(w, st.cycle);
    put(w, st.nodes);
    put(w, st.slabDepth);
    put(w, st.offers);
    w.bytes(st.slabMasks.data(), st.slabMasks.size());
    put(w, st.slabPackets);
    put(w, st.trimmed);
    if (!st.trimmed)
        put(w, st.stats);
}

bool
decodeEngineState(net::WireReader &r, EngineState &out)
{
    out = EngineState{};
    if (!get(r, out.cycle) || !get(r, out.nodes) ||
        !get(r, out.slabDepth))
        return false;
    if (out.nodes == 0 || out.nodes > kMaxNodes || out.slabDepth < 2 ||
        out.slabDepth > kMaxSlabDepth)
        return false;
    if (!get(r, out.offers))
        return false;
    // The masks' size comes from the stamp: check it against the bytes
    // left before allocating, as get() does for a count.
    const std::size_t mask_bytes =
        static_cast<std::size_t>(out.nodes) * out.slabDepth;
    if (mask_bytes > r.remaining())
        return false;
    out.slabMasks.resize(mask_bytes);
    if (!r.bytes(out.slabMasks.data(), mask_bytes) ||
        !get(r, out.slabPackets) || !get(r, out.trimmed))
        return false;
    if (!out.trimmed && !get(r, out.stats))
        return false;
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

    if (st.trimmed)
        stats_.reset();
    else
        stats_ = st.stats;

#if FT_CHECK_ENABLED
    if (checker_)
        checker_->finishRestore(stats_.delivered, stats_.selfDelivered,
                                cycle_);
#endif
    return true;
}

} // namespace fasttrack
