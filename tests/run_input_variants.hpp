/**
 * @file
 * One base sweep-point input and one variant per input field, each
 * changing exactly that field. The key-separation and codec
 * round-trip tests walk this list, so a field that some key or codec
 * ignores shows up as a failure named after the field. Also the one
 * trace whose text, keys and wire bytes the pin tests fix.
 */

#ifndef FT_TESTS_RUN_INPUT_VARIANTS_HPP
#define FT_TESTS_RUN_INPUT_VARIANTS_HPP

#include <cstdint>
#include <string>
#include <vector>

#include "noc/config.hpp"
#include "sim/simulation.hpp"
#include "traffic/injector.hpp"
#include "traffic/trace.hpp"

namespace fasttrack {

/** Everything a sweep point is keyed by. */
struct RunInput
{
    /** The field this variant changes ("base" for the base input). */
    std::string field;
    NocConfig config;
    std::uint32_t channels = 1;
    SyntheticWorkload workload;
    Cycle maxCycles = 100'000;
};

/** The base input, then one variant per field. Every variant is a
 *  valid request, so a daemon would accept each of them. */
inline std::vector<RunInput>
runInputVariants()
{
    RunInput base;
    base.field = "base";
    base.config = NocConfig::fastTrack(4, 2, 1);
    base.workload.pattern = TrafficPattern::random;
    base.workload.injectionRate = 0.4;
    base.workload.packetsPerPe = 24;
    base.workload.seed = 11;

    std::vector<RunInput> out{base};
    const auto vary = [&](const char *field, auto change) {
        RunInput v = base;
        v.field = field;
        change(v);
        out.push_back(v);
    };
    vary("n", [](RunInput &v) { v.config.n = 8; });
    vary("d", [](RunInput &v) { v.config.d = 1; });
    vary("r", [](RunInput &v) { v.config.r = 2; });
    vary("variant",
         [](RunInput &v) { v.config.variant = NocVariant::ftInject; });
    vary("allowExpressTurn",
         [](RunInput &v) { v.config.allowExpressTurn = false; });
    vary("allowUpgrade",
         [](RunInput &v) { v.config.allowUpgrade = false; });
    vary("turnPriority",
         [](RunInput &v) { v.config.turnPriority = false; });
    vary("shortLinkStages",
         [](RunInput &v) { v.config.shortLinkStages = 1; });
    vary("expressLinkStages",
         [](RunInput &v) { v.config.expressLinkStages = 1; });
    vary("channels", [](RunInput &v) { v.channels = 2; });
    vary("pattern", [](RunInput &v) {
        v.workload.pattern = TrafficPattern::transpose;
    });
    vary("injectionRate",
         [](RunInput &v) { v.workload.injectionRate = 0.40001; });
    vary("packetsPerPe",
         [](RunInput &v) { v.workload.packetsPerPe += 1; });
    vary("localRadius", [](RunInput &v) { v.workload.localRadius = 3; });
    vary("seed", [](RunInput &v) { v.workload.seed = 12; });
    vary("maxCycles", [](RunInput &v) { v.maxCycles = 12'345; });
    return out;
}

/** The trace behind Trace.TextFormatIsPinned and
 *  RunCodec.KeysAndWireBytesArePinned: a non-zero earliest, compute
 *  delays and a two-dependency message, so that a dropped or swapped
 *  field moves a pin. */
inline Trace
pinTrace()
{
    Trace t;
    t.name = "pin";
    t.n = 8;
    t.add({1, 62, 0, 0});
    t.add({63, 5, 7, 0});
    t.add({9, 40, 3, 11}, {0, 1});
    t.add({40, 2, 0, 4}, {2});
    return t;
}

/** Every field of @p a equals the same field of @p b. */
template <typename T>
bool
sameFields(const T &a, const T &b)
{
    return visitFields(a, [&b](const auto &...lhs) {
        return visitFields(b, [&](const auto &...rhs) {
            return ((lhs == rhs) && ...);
        });
    });
}

} // namespace fasttrack

#endif // FT_TESTS_RUN_INPUT_VARIANTS_HPP
