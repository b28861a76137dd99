/**
 * @file
 * Direct unit coverage of the frame-ring link registers (LinkSlab).
 * Until now these were exercised only indirectly through
 * whole-network golden hashes; here the ring arithmetic,
 * occupancy-mask edges (full rows, express ports) and single-router
 * geometry are pinned on their own.
 */

#include <gtest/gtest.h>

#include <cstdint>

#include "noc/link_slab.hpp"

namespace fasttrack {
namespace {

Packet
makePacket(std::uint64_t id, NodeId dst)
{
    Packet p;
    p.id = id;
    p.src = 0;
    p.dst = dst;
    return p;
}

TEST(LinkSlab, FrameRingWrapsAroundDepth)
{
    LinkSlab slab;
    slab.init(4, 3);
    EXPECT_EQ(slab.depth(), 3u);

    // frameOf is cycle mod depth, including cycles far past the first
    // ring revolution.
    EXPECT_EQ(slab.frameOf(0), 0u);
    EXPECT_EQ(slab.frameOf(2), 2u);
    EXPECT_EQ(slab.frameOf(3), 0u);
    EXPECT_EQ(slab.frameOf((Cycle{1} << 40) + 5),
              static_cast<std::uint32_t>(((Cycle{1} << 40) + 5) % 3));

    // A latency-2 forward issued at cycle 4 lands in frame (4+2)%3=0;
    // consuming frame 0 at cycle 6 sees exactly that packet.
    const std::uint32_t land = slab.frameOf(4 + 2);
    slab.place(land, 1, InPort::wSh, makePacket(7, 3));
    EXPECT_EQ(slab.frameOf(6), land);
    EXPECT_EQ(slab.mask(land, 1),
              1u << static_cast<unsigned>(InPort::wSh));
    EXPECT_EQ(slab.row(land, 1)[static_cast<unsigned>(InPort::wSh)].id,
              7u);

    slab.clearMask(land, 1);
    EXPECT_EQ(slab.mask(land, 1), 0u);
    EXPECT_EQ(slab.occupied(), 0u);
}

TEST(LinkSlab, ExpressAndShortPortBitsAreDistinct)
{
    LinkSlab slab;
    slab.init(2, 2);
    // All four input ports of one router in one frame: express lanes
    // (wEx, nEx) and short lanes (wSh, nSh) each own a mask bit.
    slab.place(0, 0, InPort::wEx, makePacket(1, 1));
    EXPECT_EQ(slab.mask(0, 0), 0b0001u);
    slab.place(0, 0, InPort::nEx, makePacket(2, 1));
    EXPECT_EQ(slab.mask(0, 0), 0b0011u);
    slab.place(0, 0, InPort::wSh, makePacket(3, 1));
    EXPECT_EQ(slab.mask(0, 0), 0b0111u);
    slab.place(0, 0, InPort::nSh, makePacket(4, 1));
    EXPECT_EQ(slab.mask(0, 0), 0b1111u); // full row
    EXPECT_EQ(slab.occupied(), 4u);

    // Each port's packet landed in its own slot.
    const Packet *row = slab.row(0, 0);
    EXPECT_EQ(row[static_cast<unsigned>(InPort::wEx)].id, 1u);
    EXPECT_EQ(row[static_cast<unsigned>(InPort::nEx)].id, 2u);
    EXPECT_EQ(row[static_cast<unsigned>(InPort::wSh)].id, 3u);
    EXPECT_EQ(row[static_cast<unsigned>(InPort::nSh)].id, 4u);

    // The other frame and the other router are untouched.
    EXPECT_EQ(slab.mask(1, 0), 0u);
    EXPECT_EQ(slab.mask(0, 1), 0u);
}

TEST(LinkSlab, DoubleDriverTripsSingleDriverAssert)
{
    LinkSlab slab;
    slab.init(1, 2);
    slab.place(0, 0, InPort::nSh, makePacket(1, 0));
    EXPECT_DEATH(slab.place(0, 0, InPort::nSh, makePacket(2, 0)),
                 "collision");
}

TEST(LinkSlab, FullSlabSingleRouterGeometry)
{
    // Smallest geometry: one router, minimum depth. Fill every slot
    // of every frame, then drain frame by frame.
    LinkSlab slab;
    slab.init(1, 2);
    std::uint64_t id = 0;
    for (std::uint32_t frame = 0; frame < 2; ++frame)
        for (unsigned port = 0; port < LinkSlab::kPorts; ++port)
            slab.place(frame, 0, static_cast<InPort>(port),
                       makePacket(++id, 0));
    EXPECT_EQ(slab.occupied(), 2u * LinkSlab::kPorts);
    EXPECT_EQ(slab.mask(0, 0), 0b1111u);
    EXPECT_EQ(slab.mask(1, 0), 0b1111u);

    slab.clearMask(0, 0);
    EXPECT_EQ(slab.occupied(), LinkSlab::kPorts);
    // The cleared frame is immediately reusable (the ring wrapped).
    slab.place(0, 0, InPort::wEx, makePacket(99, 0));
    EXPECT_EQ(slab.mask(0, 0), 0b0001u);
}

} // namespace
} // namespace fasttrack
