/**
 * @file
 * Every legal NoC topology of one side, for the exhaustive and
 * differential routing tests.
 */

#ifndef FT_TESTS_LEGAL_CONFIGS_HPP
#define FT_TESTS_LEGAL_CONFIGS_HPP

#include <cstdint>
#include <vector>

#include "noc/config.hpp"

namespace fasttrack {

/** Hoplite plus every FT-Full and FTlite-Inject FT(n^2, D, R) that
 *  NocConfig::validationError accepts, at the default policy flags. */
inline std::vector<NocConfig>
legalTopologies(std::uint32_t n)
{
    std::vector<NocConfig> configs{NocConfig::hoplite(n)};
    for (NocVariant v : {NocVariant::ftFull, NocVariant::ftInject}) {
        for (std::uint32_t d = 1; d <= n / 2; ++d) {
            for (std::uint32_t r = 1; r <= d; ++r) {
                NocConfig cfg; // fastTrack() aborts when illegal
                cfg.n = n;
                cfg.d = d;
                cfg.r = r;
                cfg.variant = v;
                if (cfg.validationError().empty())
                    configs.push_back(cfg);
            }
        }
    }
    return configs;
}

} // namespace fasttrack

#endif // FT_TESTS_LEGAL_CONFIGS_HPP
