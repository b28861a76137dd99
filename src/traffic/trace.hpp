/**
 * @file
 * Communication-trace format for replaying FPGA-accelerator workloads
 * (Fig 15): timestamped messages with optional dependencies, the
 * common denominator of the SpMV, graph, dataflow and multiprocessor
 * case studies.
 */

#ifndef FT_TRAFFIC_TRACE_HPP
#define FT_TRAFFIC_TRACE_HPP

#include <algorithm>
#include <concepts>
#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <iosfwd>
#include <span>
#include <string>
#include <type_traits>
#include <vector>

#include "common/logging.hpp"
#include "common/types.hpp"

namespace fasttrack {

/** One message in a workload trace. Its id is its index in
 *  Trace::messages; its dependencies live in the trace's index
 *  (Trace::depsOf). */
struct TraceMessage
{
    NodeId src = 0;
    NodeId dst = 0;
    /** Do not inject before this cycle (phase/timestamp semantics). */
    Cycle earliest = 0;
    /** Source-PE compute delay after the last dependency delivers. */
    Cycle delayAfterDeps = 0;

    bool operator==(const TraceMessage &) const = default;
};
static_assert(sizeof(TraceMessage) == 24);

/** Hand every TraceMessage field to @p f, in declaration order (see
 *  visitFields(NocConfig) in noc/config.hpp). */
template <typename Message, typename F>
    requires std::same_as<std::remove_const_t<Message>, TraceMessage>
decltype(auto)
visitFields(Message &message, F &&f)
{
    auto &[src, dst, earliest, delayAfterDeps] = message;
    return f(src, dst, earliest, delayAfterDeps);
}

/** Largest NoC side a trace generator accepts: n * n nodes then fit
 *  a 32-bit NodeId, and each axis a Coord's 16 bits. */
inline constexpr std::uint32_t kMaxTraceSide = 65535;

/** A full workload trace for an N x N NoC. */
struct Trace
{
    std::string name;
    std::uint32_t n = 0;
    /** Message i has id i. Grow it only through add(), which also
     *  indexes the message's dependencies. */
    std::vector<TraceMessage> messages;

    /** Size the messages and the dependency index for @p message_count
     *  messages that hold @p dep_count dependencies in all. */
    void reserve(std::size_t message_count, std::size_t dep_count);
    /** Append @p message; it may not inject before the messages
     *  @p deps name are *delivered* (dataflow token semantics).
     *  @p deps may not point into this trace. Returns the id. */
    std::uint64_t add(const TraceMessage &message,
                      std::span<const std::uint64_t> deps = {});
    std::uint64_t add(const TraceMessage &message,
                      std::initializer_list<std::uint64_t> deps)
    {
        return add(message, std::span(deps.begin(), deps.size()));
    }
    /** The dependencies of message @p id, in the order add() took
     *  them; the span is valid until the next add(). */
    std::span<const std::uint64_t> depsOf(std::uint64_t id) const
    {
        FT_ASSERT(id < depsEnd_.size(), "message ", id,
                  " is not in the dependency index");
        const std::uint32_t begin = id == 0 ? 0 : depsEnd_[id - 1];
        return {deps_.data() + begin, depsEnd_[id] - begin};
    }

    /** Hand @p f (id, message, depsOf(id)) for each message in id
     *  order, stopping where the dependency index does: at the end of
     *  a valid trace, short of it when messages grew without add().
     *  The one walk behind save(), the wire codec and checkpointKey. */
    template <typename F>
    void forEachMessage(F &&f) const
    {
        const std::size_t count = std::min(messages.size(), depsEnd_.size());
        for (std::size_t id = 0; id < count; ++id)
            f(std::uint64_t{id}, messages[id], depsOf(id));
    }

    /** Why the trace is invalid, or "" when it is not: every message
     *  added through add(), nodes inside the n x n torus (n >= 2), and
     *  deps referencing lower ids. The one rule list behind validate()
     *  and the wire decoder. */
    std::string validationError() const;
    /** Exit with validationError() if the trace is invalid. */
    void validate() const;

    /** Plain-text round trip (one message per line). */
    void save(std::ostream &os) const;
    /** Read a saved trace into @p trace. Returns why the text is not a
     *  valid trace (a malformed line, a count the lines do not back, or
     *  validationError()), or "" on success; @p trace is unspecified
     *  after a failure. */
    static std::string load(std::istream &is, Trace &trace);

    bool operator==(const Trace &) const = default;

  private:
    /** Dependency index (CSR): message i depends on
     *  deps_[i == 0 ? 0 : depsEnd_[i - 1] .. depsEnd_[i]). */
    std::vector<std::uint32_t> depsEnd_;
    std::vector<std::uint64_t> deps_;
};

} // namespace fasttrack

#endif // FT_TRAFFIC_TRACE_HPP
