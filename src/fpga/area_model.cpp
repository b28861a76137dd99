#include "fpga/area_model.hpp"

#include <algorithm>
#include <cmath>

#include "common/logging.hpp"

namespace fasttrack {

namespace {

/** Routers per ring dimension that carry express ports: x % r == 0. */
std::uint32_t
expressPositions(std::uint32_t n, std::uint32_t r)
{
    return (n + r - 1) / r;
}

} // namespace

std::string
NocSpec::describe() const
{
    // Appended piecewise (see coordToString) to keep Release builds
    // clear of GCC 12's -Wrestrict false positive.
    std::string s;
    if (isHoplite()) {
        s = "Hoplite";
        if (channels > 1) {
            s += '-';
            s += std::to_string(channels);
            s += 'x';
        }
        s += ' ';
        s += std::to_string(n);
        s += 'x';
        s += std::to_string(n);
        return s;
    }
    s = injectOnly ? "FTlite(" : "FT(";
    s += std::to_string(pes());
    s += ',';
    s += std::to_string(d);
    s += ',';
    s += std::to_string(r);
    s += ')';
    return s;
}

AreaModel::AreaModel(const FpgaDevice &device) : device_(device) {}

RouterCost
AreaModel::routerCost(RouterArch arch, std::uint32_t width) const
{
    FT_ASSERT(width >= 1, "zero datawidth");
    const double w = width;
    double lut_per_bit = 0.0;
    double lut_fixed = 0.0;
    double ff_per_bit = 0.0;
    double ff_fixed = 0.0;
    switch (arch) {
      case RouterArch::hoplite:
        // Two 3:1 output muxes (E, S) + DOR decode; W, N, PE inputs and
        // E, S outputs registered.
        lut_per_bit = 2.07;
        lut_fixed = 12.0;
        ff_per_bit = 5.0;
        ff_fixed = 17.0;
        break;
      case RouterArch::ftFull:
        // 4:1 muxes on E_SH/E_EX/S_EX, 5:1 (two LUTs/bit) on the shared
        // exit S_SH path, wider decode; 5 inputs + 4 outputs registered.
        lut_per_bit = 6.20;
        lut_fixed = 40.0;
        ff_per_bit = 9.0;
        ff_fixed = 24.0;
        break;
      case RouterArch::ftGrey:
        // Express in one dimension only: one less set of output muxes
        // and one less input on the remaining express output.
        lut_per_bit = 3.90;
        lut_fixed = 30.0;
        ff_per_bit = 7.0;
        ff_fixed = 20.0;
        break;
      case RouterArch::ftInject:
        // Four 3:1 muxes (no lane-crossing inputs) + inject steering.
        lut_per_bit = 5.00;
        lut_fixed = 30.0;
        ff_per_bit = 9.0;
        ff_fixed = 24.0;
        break;
    }
    return RouterCost{
        static_cast<std::uint32_t>(std::lround(lut_per_bit * w +
                                               lut_fixed)),
        static_cast<std::uint32_t>(std::lround(ff_per_bit * w +
                                               ff_fixed)),
    };
}

AreaModel::KindCounts
AreaModel::kindCounts(std::uint32_t n, std::uint32_t d, std::uint32_t r)
{
    if (d == 0)
        return KindCounts{0, 0, n * n};
    FT_ASSERT(r >= 1 && r <= d, "invalid depopulation R=", r, " D=", d);
    const std::uint32_t ex = expressPositions(n, r);
    const std::uint32_t plain = n - ex;
    return KindCounts{
        ex * ex,             // express in both x and y
        2 * ex * plain,      // express in exactly one dimension
        plain * plain,       // plain Hoplite
    };
}

double
AreaModel::frequencyMhz(const NocSpec &spec) const
{
    // Placement-congestion fit anchored to Table II (8x8 256b: Hoplite
    // 344 MHz, FT ~320 MHz) and the Fig 10 trends (frequency falls with
    // PE count and datawidth).
    const double pes = spec.pes();
    const double w = spec.width;
    double f = 720.0 /
               (1.0 + 0.10 * std::log2(pes) + 0.055 * std::log2(w));
    if (!spec.isHoplite()) {
        // Wider switches and long express wires cost a little timing.
        f *= 0.93;
        // Express wires must also close timing: one segment spanning D
        // router tiles plus the mux landing.
        const double tile =
            static_cast<double>(device_.sliceSpan) / spec.n;
        const double express_ns =
            device_.tReg + device_.tLutHop + device_.tWireBase +
            device_.tWirePerSlice * (spec.d * tile);
        f = std::min(f, 1000.0 / express_ns);
    }
    // Replicated channels congest the fabric slightly.
    if (spec.channels > 1)
        f *= 1.0 - 0.02 * (spec.channels - 1);

    // Link pipelining (Section V / HyperFlex discussion): decompose
    // the calibrated period into a router-logic part (~60%) and a
    // link-wire part (~40%); extra registers divide only the link
    // part. The slowest (least pipelined) link class binds the clock.
    if (spec.shortLinkStages > 0 || spec.expressLinkStages > 0) {
        const double t0 = 1000.0 / f;
        double link_scale = 1.0 / (spec.shortLinkStages + 1.0);
        if (!spec.isHoplite()) {
            link_scale = std::max(
                link_scale, 1.0 / (spec.expressLinkStages + 1.0));
        }
        f = 1000.0 / (0.60 * t0 + 0.40 * t0 * link_scale);
    }
    return std::min(f, device_.clockCeilingMhz);
}

NocCost
AreaModel::nocCost(const NocSpec &spec) const
{
    FT_ASSERT(spec.n >= 2, "NoC side must be >= 2");
    NocCost cost;
    const auto kinds = kindCounts(spec.n, spec.isHoplite() ? 0 : spec.d,
                                  spec.r);

    std::uint64_t luts = 0;
    std::uint64_t ffs = 0;
    auto add = [&](RouterArch arch, std::uint32_t count) {
        const RouterCost rc = routerCost(arch, spec.width);
        luts += static_cast<std::uint64_t>(rc.luts) * count;
        ffs += static_cast<std::uint64_t>(rc.ffs) * count;
    };
    if (spec.isHoplite()) {
        add(RouterArch::hoplite, kinds.white);
    } else {
        add(spec.injectOnly ? RouterArch::ftInject : RouterArch::ftFull,
            kinds.black);
        add(RouterArch::ftGrey, kinds.grey);
        add(RouterArch::hoplite, kinds.white);
    }
    luts *= spec.channels;
    ffs *= spec.channels;

    cost.luts = luts;
    cost.ffs = ffs;
    cost.costPerSwitch = static_cast<double>(std::max(luts, ffs)) /
                         (spec.pes() * spec.channels);

    // Wires: 2N rings; a plain ring is 1 track, FT adds D/R express
    // tracks at any cut.
    const std::uint32_t rings = 2 * spec.n;
    const std::uint32_t tracks =
        spec.isHoplite() ? 1 : (spec.d / spec.r + 1);
    cost.wireCount = rings * tracks * spec.channels;

    // Total physical wire length x width (SLICE-bits): short links span
    // one router tile, express links span D tiles, N/R express links
    // per ring.
    const double tile = static_cast<double>(device_.sliceSpan) / spec.n;
    const double short_len = rings * spec.n * tile;
    double express_len = 0.0;
    if (!spec.isHoplite()) {
        const double links_per_ring = expressPositions(spec.n, spec.r);
        express_len = rings * links_per_ring * (spec.d * tile);
    }
    cost.wireSliceBits =
        (short_len + express_len) * spec.width * spec.channels;

    // Link pipeline registers add FFs: one register bank per stage on
    // every link of the class.
    const std::uint64_t short_links =
        static_cast<std::uint64_t>(rings) * spec.n;
    std::uint64_t express_links = 0;
    if (!spec.isHoplite())
        express_links = static_cast<std::uint64_t>(rings) *
                        expressPositions(spec.n, spec.r);
    cost.ffs += (short_links * spec.shortLinkStages +
                 express_links * spec.expressLinkStages) *
                spec.width * spec.channels;

    cost.frequencyMhz = frequencyMhz(spec);
    return cost;
}

} // namespace fasttrack
