/**
 * @file
 * Dependency-aware trace replay engine: injects trace messages once
 * their timestamp has passed and all their dependencies have been
 * delivered, modelling PEs that consume tokens, compute, and emit.
 */

#ifndef FT_TRAFFIC_TRACE_REPLAY_HPP
#define FT_TRAFFIC_TRACE_REPLAY_HPP

#include <concepts>
#include <cstdint>
#include <type_traits>
#include <utility>
#include <vector>

#include "noc/noc_device.hpp"
#include "traffic/chunked_queue.hpp"
#include "traffic/trace.hpp"

namespace fasttrack {

/**
 * Serializable state of one TraceReplayer (sim/checkpoint.hpp): the
 * dependency counters, the ready set, the per-source FIFOs and the
 * delivery/injection progress. The reverse dependency index is
 * re-derived from the trace at construction and not serialized.
 */
struct TraceReplayState
{
    /** Outstanding undelivered dependencies per message. */
    std::vector<std::uint32_t> pendingDeps;
    /** Drained ready queue as ascending (cycle, id) pairs. */
    std::vector<std::pair<Cycle, std::uint64_t>> ready;
    /** Per-source FIFO contents, front first. */
    std::vector<std::vector<std::uint64_t>> sourceQueues;
    std::uint64_t deliveredCount = 0;
    std::uint64_t injectedCount = 0;
    Cycle lastDelivery = 0;
};

/** Hand every TraceReplayState field to @p f, in declaration order
 *  (see visitFields(NocConfig) in noc/config.hpp). */
template <typename State, typename F>
    requires std::same_as<std::remove_const_t<State>, TraceReplayState>
decltype(auto)
visitFields(State &state, F &&f)
{
    auto &[pendingDeps, ready, sourceQueues, deliveredCount,
           injectedCount, lastDelivery] = state;
    return f(pendingDeps, ready, sourceQueues, deliveredCount,
             injectedCount, lastDelivery);
}

/**
 * Replays one Trace on one NocDevice. Wiring: the replayer installs a
 * delivery callback on the device (chaining to any previous callback
 * is the caller's concern), so construct it before running and do not
 * replace the callback afterwards.
 *
 * Per cycle, call tick() then the device's step(); finished() reports
 * completion. runSim (sim/simulation.hpp) drives that loop. The order
 * tick() moves and offers messages in is part of every replay result
 * (docs/engine.md, "The replayer's per-cycle contract").
 */
class TraceReplayer
{
  public:
    TraceReplayer(NocDevice &noc, const Trace &trace);

    /** Move the messages due by now into their source FIFOs, then
     *  offer each FIFO head whose node has a free offer slot. */
    void tick();
    bool finished() const;

    std::uint64_t deliveredMessages() const { return deliveredCount_; }
    /** Cycle of the most recent delivery (the makespan once
     *  finished()). */
    Cycle lastDelivery() const { return lastDelivery_; }

    /** Capture the replayer's complete dynamic state (always
     *  succeeds; the bool mirrors the device-side convention). */
    bool captureState(TraceReplayState &out) const;
    /**
     * Replay a captured state; restore the device first. False, with
     * nothing changed, when the state does not fit this trace and
     * device: the message or PE counts differ, or the device's
     * in-flight packet tags, the ready and queued ids and the
     * dependency counters do not describe one set of undelivered
     * messages (each id once, every counter equal to its message's
     * undelivered dependencies, deliveredCount equal to the rest).
     */
    bool restoreState(const TraceReplayState &st);

  private:
    /** A message that may inject from cycle `at` on; `src` is its
     *  source node, so releasing it touches nothing else. */
    struct Ready
    {
        Cycle at = 0;
        std::uint32_t id = 0;
        NodeId src = 0;
    };
    using SourceQueue = ChunkedQueue<std::uint32_t>;

    void onDeliver(const Packet &p, Cycle when);
    void enqueue(NodeId src, std::uint32_t id);
    void offerHead(NodeId node, Cycle now);
    void resetQueues();

    NocDevice &noc_;
    const Trace &trace_;
    /** Per message, what offering it reads: flat copies, far denser
     *  than the trace's own records. */
    std::vector<NodeId> dst_;
    std::vector<Cycle> earliest_;
    /** Outstanding undelivered dependencies per message. */
    std::vector<std::uint32_t> pendingDeps_;
    /** Reverse dependency index (CSR): the dependents of message m
     *  are dependents_[dependentsAt_[m] .. dependentsAt_[m + 1]). */
    std::vector<std::uint32_t> dependentsAt_;
    std::vector<std::uint32_t> dependents_;
    /** Ready messages in ascending (at, id) order, consumed from
     *  runNext_: the dependency-free messages, or a restored ready
     *  set. */
    std::vector<Ready> run_;
    std::size_t runNext_ = 0;
    /** Min-heap by (at, id) of the messages deliveries released. */
    std::vector<Ready> released_;
    /** Declared before sourceQueues_ so every queue dies first. */
    ChunkArena arena_{SourceQueue::chunkBytes()};
    /** Per-source FIFO of ready message ids. */
    std::vector<SourceQueue> sourceQueues_;
    /** Bit per node, set while the node's FIFO is non-empty. */
    std::vector<std::uint64_t> nonEmpty_;
    std::uint64_t deliveredCount_ = 0;
    std::uint64_t injectedCount_ = 0;
    Cycle lastDelivery_ = 0;
};

} // namespace fasttrack

#endif // FT_TRAFFIC_TRACE_REPLAY_HPP
