#include "noc/routing.hpp"

#include <mutex>

namespace fasttrack {

// The routing policy itself (candidate builders) lives inline in
// routing.hpp; only the cold table construction and diagnostic
// helpers stay out of line.

namespace {

/** DOR direction of a packet with remaining classes (dxc, dyc). */
enum class Dir { east, south, exit };

Dir
desiredDir(std::uint8_t dx_cls, std::uint8_t dy_cls)
{
    if (dx_cls != 0)
        return Dir::east;
    return dy_cls != 0 ? Dir::south : Dir::exit;
}

Dir
outDir(OutPort out)
{
    return out == OutPort::eEx || out == OutPort::eSh ? Dir::east
                                                      : Dir::south;
}

/** The greedy walk over @p cands from entry @p first: the decision
 *  byte for the first entry whose output is not in @p taken. */
std::uint8_t
walk(const CandidateList &cands, std::size_t first, unsigned taken,
     Dir want)
{
    for (std::size_t i = first; i < cands.size(); ++i) {
        const OutPort out = cands[i].out;
        if (taken & (1u << static_cast<unsigned>(out)))
            continue;
        unsigned d = static_cast<unsigned>(out);
        if (i != 0) {
            d |= CandidateTable::kDeflect;
            if (isExpress(cands[0].out) && !isExpress(out))
                d |= CandidateTable::kLane;
        }
        if (outDir(out) != want)
            d |= CandidateTable::kMisroute;
        if (isExpress(out))
            d |= CandidateTable::kExpress;
        return static_cast<std::uint8_t>(d);
    }
    return CandidateTable::kNone;
}

} // namespace

CandidateTable::CandidateTable(const RouterSite &site)
{
    // One representative distance per class, for the canonical D of
    // the site (forSite): 0, short of D, D itself, past D misaligned.
    const std::uint32_t rep[4] = {0, 1, site.d, site.d + 1};

    for (std::size_t in = 0; in < 4; ++in) {
        for (std::uint8_t xc = 0; xc < 4; ++xc) {
            for (std::uint8_t yc = 0; yc < 4; ++yc) {
                const CandidateList cands = routeCandidates(
                    site, static_cast<InPort>(in), rep[xc], rep[yc],
                    /*express_class=*/false);
                const std::size_t r = row(in, xc, yc);
                std::size_t first = 0;
                exit_[r] = OutPort::none;
                if (cands.size() > 0 && cands[0].exit) {
                    exit_[r] = cands[0].out;
                    first = 1;
                }
                for (std::size_t i = first; i < cands.size(); ++i) {
                    FT_ASSERT(!cands[i].exit, "exit candidate at entry ",
                              i, " of ", toString(static_cast<InPort>(in)),
                              "'s list: only the first entry may exit");
                }
                for (unsigned taken = 0; taken < 16; ++taken) {
                    route_[r * 16 + taken] =
                        walk(cands, first, taken, desiredDir(xc, yc));
                }
            }
        }
    }

    for (std::uint8_t xc = 0; xc < 4; ++xc) {
        for (std::uint8_t yc = 0; yc < 4; ++yc) {
            std::uint8_t *row_bytes =
                inject_.data() + (static_cast<std::size_t>(xc) * 4 + yc) *
                                     16;
            if (xc == 0 && yc == 0) {
                // Self-addressed packets bypass the NoC.
                for (unsigned taken = 0; taken < 16; ++taken)
                    row_bytes[taken] = kNone;
                continue;
            }
            bool express = false;
            const CandidateList cands =
                injectCandidates(site, rep[xc], rep[yc], express);
            for (unsigned taken = 0; taken < 16; ++taken) {
                // Injection counts neither deflections nor misroutes:
                // keep the output and the lane class only.
                std::uint8_t d = walk(cands, 0, taken, desiredDir(xc, yc));
                if (!(d & kNone)) {
                    d &= kPortMask | kExpress;
                    if (express)
                        d |= kExpressClass;
                }
                row_bytes[taken] = d;
            }
        }
    }
}

std::size_t
CandidateTable::kindOf(const RouterSite &site)
{
    return static_cast<std::size_t>(site.variant) * 32 +
           (site.hasEx ? 16u : 0u) + (site.hasEy ? 8u : 0u) +
           (site.wrapAligned ? 4u : 0u) +
           (site.allowExpressTurn ? 2u : 0u) +
           (site.allowUpgrade ? 1u : 0u);
}

const CandidateTable &
CandidateTable::forSite(const RouterSite &site)
{
    // One slot per kind, built on first use and never freed, so every
    // device on every thread shares the table and nothing grows with N.
    static std::array<std::once_flag, kKinds> once;
    static std::array<const CandidateTable *, kKinds> tables{};

    const std::size_t kind = kindOf(site);
    FT_ASSERT(kind < kKinds, "unknown router site kind");
    std::call_once(once[kind], [&] {
        // Canonical representatives: the builders read N nowhere and
        // D only through the distance class, so D = 2 (where all four
        // classes exist) stands for every legal (N, D).
        RouterSite canonical = site;
        canonical.n = 4;
        canonical.d = 2;
        tables[kind] = new CandidateTable(canonical);
    });
    return *tables[kind];
}

const char *
toString(InPort p)
{
    switch (p) {
      case InPort::wEx: return "W_EX";
      case InPort::nEx: return "N_EX";
      case InPort::wSh: return "W_SH";
      case InPort::nSh: return "N_SH";
      case InPort::pe: return "PE";
    }
    return "?";
}

const char *
toString(OutPort p)
{
    switch (p) {
      case OutPort::eEx: return "E_EX";
      case OutPort::eSh: return "E_SH";
      case OutPort::sEx: return "S_EX";
      case OutPort::sSh: return "S_SH";
      case OutPort::none: return "none";
    }
    return "?";
}

} // namespace fasttrack
