/**
 * @file
 * Per-configuration routing geometry of the stepping engine.
 *
 * Everything a cycle engine precomputes at construction — the router
 * objects with their shared destination -> distance-class lookups, the
 * landing site of each (router, output-port) link, the per-lane link
 * latencies and the frame-ring depth they imply — depends only on the
 * NocConfig. Network builds one EngineGeometry and reads it from its
 * hot loop, keeping the wiring apart from the per-run link and offer
 * state.
 */

#ifndef FT_NOC_GEOMETRY_HPP
#define FT_NOC_GEOMETRY_HPP

#include <array>
#include <vector>

#include "noc/config.hpp"
#include "noc/router.hpp"
#include "noc/topology.hpp"

namespace fasttrack {

/** Where a packet leaving a router on an output port lands. */
struct TransferTarget
{
    std::uint32_t router = kInvalidNode;
    InPort port = InPort::wSh;
};

/** Immutable per-config routing geometry (see file comment). */
class EngineGeometry
{
  public:
    explicit EngineGeometry(const NocConfig &config);

    const Topology &topo() const { return topo_; }
    const NocConfig &config() const { return topo_.config(); }
    std::uint32_t nodeCount() const { return topo_.nodeCount(); }

    const std::vector<Router> &routers() const { return routers_; }

    /** Landing sites of @p router, indexed by OutPort (kInvalidNode
     *  marks a non-existent express link at a depopulated site). */
    const std::array<TransferTarget, kNumOutPorts> &
    targets(std::uint32_t router) const
    {
        return targets_[router];
    }

    /** Link latency in cycles per output lane (1 + extra stages). */
    const std::array<Cycle, kNumOutPorts> &portLatency() const
    {
        return portLatency_;
    }

    /** Frame-ring depth a link slab needs: one frame per distinct
     *  landing offset plus the frame being consumed, so an in-flight
     *  write can never alias the current frame. */
    std::uint32_t slabDepth() const { return slabDepth_; }

    /** Total physical links (short + express) of one replica. */
    std::uint64_t linkCount() const;

  private:
    Topology topo_;
    std::vector<Router> routers_;
    std::vector<std::array<TransferTarget, kNumOutPorts>> targets_;
    std::array<Cycle, kNumOutPorts> portLatency_{};
    std::uint32_t slabDepth_ = 0;
};

} // namespace fasttrack

#endif // FT_NOC_GEOMETRY_HPP
