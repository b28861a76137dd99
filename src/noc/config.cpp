#include "noc/config.hpp"

#include "common/logging.hpp"

namespace fasttrack {

const char *
toString(NocVariant variant)
{
    switch (variant) {
      case NocVariant::hoplite: return "hoplite";
      case NocVariant::ftFull: return "ft-full";
      case NocVariant::ftInject: return "ft-inject";
    }
    return "?";
}

std::optional<NocVariant>
variantFromString(const std::string &name)
{
    for (const NocVariant variant :
         {NocVariant::hoplite, NocVariant::ftFull, NocVariant::ftInject})
        if (name == toString(variant))
            return variant;
    return std::nullopt;
}

std::string
NocConfig::validationError() const
{
    using detail::concat;
    if (n < 2)
        return concat("NoC side must be >= 2, got ", n);
    if (shortLinkStages > 8 || expressLinkStages > 8)
        return "more than 8 extra link stages is not meaningful";
    if (!isFastTrack())
        return "";
    if (d < 1 || d > n / 2)
        return concat("express length D must be in [1, N/2]: D=", d,
                      " N=", n);
    if (r < 1 || r > d)
        return concat("depopulation R must be in [1, D]: R=", r,
                      " D=", d);
    if (d % r != 0) {
        return concat("R must divide D so express links chain through "
                      "express-capable routers: R=", r, " D=", d);
    }
    if (r > 1 && n % r != 0) {
        return concat("depopulated NoCs need R | N so the express "
                      "braid stays balanced across the torus "
                      "wraparound: R=", r, " N=", n);
    }
    if (variant == NocVariant::ftInject && n % d != 0) {
        return concat("inject-only FastTrack needs D | N so deflected "
                      "express packets realign: D=", d, " N=", n);
    }
    return "";
}

void
NocConfig::validate() const
{
    const std::string error = validationError();
    if (!error.empty())
        FT_FATAL(error);
}

NocSpec
NocConfig::toSpec(std::uint32_t width, std::uint32_t channels) const
{
    NocSpec spec;
    spec.n = n;
    spec.width = width;
    spec.d = costD();
    spec.r = r;
    spec.injectOnly = variant == NocVariant::ftInject;
    spec.channels = channels;
    spec.shortLinkStages = shortLinkStages;
    spec.expressLinkStages = expressLinkStages;
    return spec;
}

std::string
NocConfig::describe() const
{
    if (!isFastTrack())
        return "Hoplite " + std::to_string(n) + "x" + std::to_string(n);
    std::string name =
        variant == NocVariant::ftInject ? "FTlite(" : "FT(";
    return name + std::to_string(pes()) + "," + std::to_string(d) + "," +
           std::to_string(r) + ")";
}

NocConfig
NocConfig::hoplite(std::uint32_t n)
{
    NocConfig cfg;
    cfg.n = n;
    cfg.variant = NocVariant::hoplite;
    cfg.validate();
    return cfg;
}

NocConfig
NocConfig::fastTrack(std::uint32_t n, std::uint32_t d, std::uint32_t r,
                     NocVariant variant)
{
    NocConfig cfg;
    cfg.n = n;
    cfg.d = d;
    cfg.r = r;
    cfg.variant = variant;
    cfg.validate();
    return cfg;
}

} // namespace fasttrack
