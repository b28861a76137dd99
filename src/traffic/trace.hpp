/**
 * @file
 * Communication-trace format for replaying FPGA-accelerator workloads
 * (Fig 15): timestamped messages with optional dependencies, the
 * common denominator of the SpMV, graph, dataflow and multiprocessor
 * case studies.
 */

#ifndef FT_TRAFFIC_TRACE_HPP
#define FT_TRAFFIC_TRACE_HPP

#include <concepts>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <type_traits>
#include <vector>

#include "common/types.hpp"

namespace fasttrack {

/** One message in a workload trace. */
struct TraceMessage
{
    /** Dense id, equal to the message's index in Trace::messages. */
    std::uint64_t id = 0;
    NodeId src = 0;
    NodeId dst = 0;
    /** Do not inject before this cycle (phase/timestamp semantics). */
    Cycle earliest = 0;
    /** Source-PE compute delay after the last dependency delivers. */
    Cycle delayAfterDeps = 0;
    /** Messages that must be *delivered* before this one may inject
     *  (dataflow token semantics). */
    std::vector<std::uint64_t> deps;
};

/** Hand every TraceMessage field to @p f, in declaration order (see
 *  visitFields(NocConfig) in noc/config.hpp). */
template <typename Message, typename F>
    requires std::same_as<std::remove_const_t<Message>, TraceMessage>
decltype(auto)
visitFields(Message &message, F &&f)
{
    auto &[id, src, dst, earliest, delayAfterDeps, deps] = message;
    return f(id, src, dst, earliest, delayAfterDeps, deps);
}

/** A full workload trace for an N x N NoC. */
struct Trace
{
    std::string name;
    std::uint32_t n = 0;
    std::vector<TraceMessage> messages;

    /** Why the trace is invalid, or "" when it is not: ids must be
     *  dense, nodes inside the n x n torus (n >= 2), and deps must
     *  reference lower ids. The one rule list behind validate() and
     *  the wire decoder. */
    std::string validationError() const;
    /** Exit with validationError() if the trace is invalid. */
    void validate() const;

    /** Plain-text round trip (one message per line). */
    void save(std::ostream &os) const;
    static Trace load(std::istream &is);
};

} // namespace fasttrack

#endif // FT_TRAFFIC_TRACE_HPP
