/**
 * @file
 * SMART-style virtual express baseline (Krishna et al. [22], discussed
 * in Sections II-A1 and III-1): a Hoplite torus whose packets may
 * tunnel combinationally through up to HPC_max routers per cycle when
 * the straight-line path ahead is uncontended. Bypass paths are
 * *virtual* - they reuse the ordinary single-hop links - so every
 * bypassed router still inserts its LUT delay into the cycle; on an
 * FPGA that collapses the clock (Fig 4), which is exactly the paper's
 * motivation for physical express links.
 *
 * The model here is idealized in SMART's favor: bypass arbitration is
 * globally greedy with no setup-cycle overhead (real SMART spends a
 * cycle on SSR requests). Even so, converting cycles to wall-clock
 * with the Fig 4 frequencies shows it losing to FastTrack on FPGAs.
 */

#ifndef FT_NOC_SMART_HPP
#define FT_NOC_SMART_HPP

#include <array>
#include <vector>

#include "noc/engine_core.hpp"
#include "noc/network.hpp"

namespace fasttrack {

/**
 * Hoplite network with SMART multi-hop bypass. Implements NocDevice
 * (via EngineCore's shared offer/drain/measurement scaffolding), so
 * all traffic drivers work unchanged.
 */
class SmartNetwork : public EngineCore
{
  public:
    /**
     * @param n torus side (plain Hoplite topology).
     * @param hpc_max maximum routers traversed per cycle (>= 1;
     *        1 degenerates to baseline Hoplite).
     */
    SmartNetwork(std::uint32_t n, std::uint32_t hpc_max);

    void step() override;
    const NocConfig &config() const override { return geo_.config(); }
    std::uint64_t linkCount() const override;
    std::uint32_t channelCount() const override { return 1; }

    std::uint32_t hpcMax() const { return hpcMax_; }
    /** Multi-hop traversals realized, by chain length (1..HPC_max). */
    const std::vector<std::uint64_t> &bypassHistogram() const
    {
        return bypassLengths_;
    }

  private:
    NodeId eastOf(NodeId id) const;
    NodeId southOf(NodeId id) const;

    /** Hoplite routers sharing one set of class lookups. */
    EngineGeometry geo_;
    /** Link registers feeding each router, indexed by InPort, with
     *  their occupancy bits; next_* fills during a step. */
    std::vector<std::array<Packet, 4>> regs_;
    std::vector<std::uint8_t> mask_;
    std::vector<std::array<Packet, 4>> nextRegs_;
    std::vector<std::uint8_t> nextMask_;
    std::uint32_t hpcMax_;
    std::vector<std::uint64_t> bypassLengths_;
};

} // namespace fasttrack

#endif // FT_NOC_SMART_HPP
