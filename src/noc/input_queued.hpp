/**
 * @file
 * Input-queued baseline routers for Fig 1 (Section II-A, Table I):
 * the CONNECT/Split-Merge-class buffered mesh and the OpenSMART-class
 * virtual-channel torus. The paper quotes published FPGA costs for
 * these designs; this model lets the Fig 1 bandwidth axis be
 * *measured* under identical traffic instead of quoted.
 *
 * Single-flit packets (as everywhere in this library) keep the router
 * exact without wormhole machinery: each input port holds one FIFO
 * per virtual channel; each cycle every output port grants one
 * requesting (port, VC) round-robin, and a granted packet moves iff
 * its downstream VC FIFO has a free slot at the start of the cycle
 * (conservative credits). Routing is XY dimension order.
 *
 * The two topologies differ in four places only:
 * - the route: the only way on the mesh, the shorter way around each
 *   ring on the torus (ties go positive);
 * - the edge links: absent on the mesh; on the torus they wrap around
 *   and cross that ring's dateline, which moves a packet up one VC;
 * - the VC count: one on the mesh, where XY order is deadlock-free;
 *   at least two on the torus, whose dateline needs an escape VC;
 * - linkCount().
 */

#ifndef FT_NOC_INPUT_QUEUED_HPP
#define FT_NOC_INPUT_QUEUED_HPP

#include <array>
#include <deque>
#include <vector>

#include "noc/engine_core.hpp"

namespace fasttrack {

/** Input-queued mesh or VC torus implementing the NocDevice interface
 *  through EngineCore's shared offer/drain/measurement scaffolding. */
class InputQueuedNetwork : public EngineCore
{
  public:
    /**
     * One-VC bidirectional mesh (CONNECT class).
     * @param n mesh side.
     * @param fifo_depth packets per input FIFO (>= 1).
     */
    static InputQueuedNetwork mesh(std::uint32_t n,
                                   std::uint32_t fifo_depth);

    /**
     * Bidirectional torus with dateline VCs (OpenSMART class).
     * @param n torus side.
     * @param vc_count virtual channels per input port (>= 2: the
     *        dateline scheme needs an escape VC).
     * @param fifo_depth packets per VC FIFO (>= 1).
     */
    static InputQueuedNetwork torus(std::uint32_t n,
                                    std::uint32_t vc_count,
                                    std::uint32_t fifo_depth);

    void step() override;
    const NocConfig &config() const override { return config_; }
    std::uint64_t linkCount() const override;
    std::uint32_t channelCount() const override { return 1; }

    /** Packets that switched to the escape VC at a dateline (always 0
     *  on the mesh). */
    std::uint64_t datelineCrossings() const { return datelines_; }

  private:
    InputQueuedNetwork(std::uint32_t n, bool torus,
                       std::uint32_t vc_count, std::uint32_t fifo_depth);

    enum Port : std::uint8_t
    {
        north = 0, ///< from/to y-1
        south = 1, ///< from/to y+1
        east = 2,  ///< from/to x+1
        west = 3,  ///< from/to x-1
        local = 4, ///< client
        portCount = 5,
    };

    /** XY output toward @p dst from the router at @p here. */
    Port routeOutput(Coord here, Coord dst) const;
    /** Router reached through @p out, wrapping around at the edges. */
    NodeId neighbor(Coord here, Port out) const;
    /** Does the link through @p out leave the array at its edge? */
    bool atEdge(Coord here, Port out) const;

    struct RouterState
    {
        /** [vc][port] input queues. */
        std::vector<std::array<std::deque<Packet>, portCount>> vcs;
        /** Round-robin pointer per output over (port, vc) requesters. */
        std::array<std::uint32_t, portCount> rr{};
    };

    NocConfig config_; ///< for the NocDevice interface (n, hoplite tag)
    std::uint32_t n_;
    bool torus_;
    std::uint32_t vcCount_;
    std::uint32_t fifoDepth_;
    std::vector<RouterState> routers_;
    std::uint64_t datelines_ = 0;
};

} // namespace fasttrack

#endif // FT_NOC_INPUT_QUEUED_HPP
