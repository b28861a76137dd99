/**
 * @file
 * User-facing configuration of one NoC instance: the FT(N^2, D, R)
 * topology parameters, the router variant, and routing policy knobs.
 */

#ifndef FT_NOC_CONFIG_HPP
#define FT_NOC_CONFIG_HPP

#include <concepts>
#include <cstdint>
#include <optional>
#include <string>
#include <type_traits>

#include "fpga/area_model.hpp"

namespace fasttrack {

/** Router/switching family of the whole NoC. */
enum class NocVariant
{
    /** Baseline bufferless deflection torus (Kapre & Gray). */
    hoplite,
    /** FastTrack with full routers: lane changes from any port. */
    ftFull,
    /** FastTrack lite: express entry only at PE injection, no lane
     *  crossing afterwards. */
    ftInject,
};

/** True when @p v names a declared variant; wire decoders refuse the
 *  rest (net/codec.hpp). */
constexpr bool
knownValue(NocVariant v)
{
    return static_cast<unsigned>(v) <=
           static_cast<unsigned>(NocVariant::ftInject);
}

const char *toString(NocVariant variant);
/** The variant toString() names @p name, or nullopt. */
std::optional<NocVariant> variantFromString(const std::string &name);

/**
 * Configuration of an FT(N^2, D, R) NoC.
 *
 * Constraints checked by validate(): N >= 2; for FastTrack variants
 * 1 <= D <= N/2, R in [1, D] with R | D, and R | N when R > 1 (so the
 * express braid stays balanced across the torus wraparound); the
 * inject variant further needs D | N so deflected express packets
 * stay aligned with the express network (Section IV-D).
 */
struct NocConfig
{
    /** Side of the N x N torus. */
    std::uint32_t n = 8;
    /** Express link length in hops; ignored for hoplite. */
    std::uint32_t d = 2;
    /** Depopulation factor (1 = fully populated). */
    std::uint32_t r = 1;
    /** Switching family. */
    NocVariant variant = NocVariant::hoplite;
    /**
     * Allow W_EX -> S_EX turns inside full routers (stay on the fast
     * lanes through the corner). Ablation knob; on by default.
     */
    bool allowExpressTurn = true;
    /**
     * Allow short->express lane upgrades from the W/N ports of full
     * routers (Fig 8's "upgrade later"). Ablation knob; on by default.
     */
    bool allowUpgrade = true;
    /**
     * Use the paper's turn-priority livelock rule (W->S turns beat ring
     * traffic). Disabling reverts to naive straight-first priority and
     * exists only for the livelock ablation bench.
     */
    bool turnPriority = true;
    /**
     * Extra pipeline registers on every short link (Section V: "we
     * can also insert a configurable number of additional registers
     * along the NoC links if an even faster frequency is desired";
     * Section VII's HyperFlex discussion). Link latency becomes
     * 1 + stages cycles.
     */
    std::uint32_t shortLinkStages = 0;
    /** Extra pipeline registers on every express link. */
    std::uint32_t expressLinkStages = 0;

    bool isFastTrack() const { return variant != NocVariant::hoplite; }
    std::uint32_t pes() const { return n * n; }

    /** Why the combination is invalid (the first rule it breaks), or
     *  empty when it is valid. Never aborts: a daemon checks hostile
     *  requests with it. */
    std::string validationError() const;

    /** Abort with validationError() if the combination is invalid. */
    void validate() const;

    /** Express-link length as seen by the cost models (0 = none). */
    std::uint32_t costD() const { return isFastTrack() ? d : 0; }

    /** Implementation spec for the FPGA cost models. */
    NocSpec toSpec(std::uint32_t width = 256,
                   std::uint32_t channels = 1) const;

    std::string describe() const;

    /** Baseline Hoplite of side @p n. */
    static NocConfig hoplite(std::uint32_t n);
    /** FastTrack FT(n^2, d, r). */
    static NocConfig fastTrack(std::uint32_t n, std::uint32_t d,
                               std::uint32_t r,
                               NocVariant variant = NocVariant::ftFull);
};

/**
 * Hand every NocConfig field to @p f as one argument pack, in
 * declaration order. This is the one list of the fields: content keys
 * and wire codecs (sim/run_codec.hpp) visit it, and its order is
 * their byte order. The structured binding stops the build when a
 * member is added without being listed here.
 */
template <typename Config, typename F>
    requires std::same_as<std::remove_const_t<Config>, NocConfig>
decltype(auto)
visitFields(Config &config, F &&f)
{
    auto &[n, d, r, variant, allowExpressTurn, allowUpgrade,
           turnPriority, shortLinkStages, expressLinkStages] = config;
    return f(n, d, r, variant, allowExpressTurn, allowUpgrade,
             turnPriority, shortLinkStages, expressLinkStages);
}

} // namespace fasttrack

#endif // FT_NOC_CONFIG_HPP
