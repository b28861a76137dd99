#include "traffic/segmentation.hpp"

#include "common/logging.hpp"

namespace fasttrack {

std::uint32_t
fragmentsPerMessage(std::uint32_t message_bits, std::uint32_t datawidth)
{
    FT_ASSERT(message_bits >= 1 && datawidth >= 1,
              "bad segmentation sizes");
    return (message_bits + datawidth - 1) / datawidth;
}

Trace
segmentTrace(const Trace &trace, std::uint32_t message_bits,
             std::uint32_t datawidth)
{
    trace.validate();
    const std::uint32_t frags =
        fragmentsPerMessage(message_bits, datawidth);
    if (frags == 1)
        return trace;

    Trace out;
    out.name = trace.name + "@" + std::to_string(datawidth) + "b";
    out.n = trace.n;
    // The dependency index grows as fragments are added.
    out.reserve(trace.messages.size() * frags, 0);

    // Fragment f of message m is message m * frags + f. The producer
    // computes once, then streams fragments, so every fragment waits
    // on every fragment of each of m's dependencies.
    std::vector<std::uint64_t> frag_deps;
    for (std::size_t id = 0; id < trace.messages.size(); ++id) {
        frag_deps.clear();
        for (std::uint64_t dep : trace.depsOf(id)) {
            for (std::uint32_t f = 0; f < frags; ++f)
                frag_deps.push_back(dep * frags + f);
        }
        for (std::uint32_t f = 0; f < frags; ++f)
            out.add(trace.messages[id], frag_deps);
    }
    out.validate();
    return out;
}

} // namespace fasttrack
