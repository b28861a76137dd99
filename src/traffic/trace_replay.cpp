#include "traffic/trace_replay.hpp"

#include <algorithm>
#include <bit>
#include <limits>
#include <numeric>

#include "common/logging.hpp"
#include "noc/engine_state.hpp"

namespace fasttrack {

namespace {

/** Ascending (at, id): the one order ready messages leave in. */
constexpr auto readyBefore = [](const auto &a, const auto &b) {
    return a.at != b.at ? a.at < b.at : a.id < b.id;
};
/** Heap order that keeps the earliest (at, id) at the front. */
constexpr auto readyAfter = [](const auto &a, const auto &b) {
    return readyBefore(b, a);
};

constexpr std::uint64_t kMaxIds = std::numeric_limits<std::uint32_t>::max();

/**
 * True when @p st and @p in_flight (the tags of the device's offered
 * and in-flight packets) describe one set of undelivered messages of
 * @p trace: no id is both waiting on dependencies (a non-zero
 * counter), in flight, ready or queued, or twice any of those; every
 * queued id sits in its own source's FIFO; every counter equals its
 * message's dependencies still undelivered; and deliveredCount counts
 * every other message.
 */
bool
describesOneUndeliveredSet(const Trace &trace, const TraceReplayState &st,
                           const std::vector<std::uint64_t> &in_flight)
{
    const std::size_t count = trace.messages.size();
    std::vector<std::uint8_t> undelivered(count, 0);
    std::uint64_t undelivered_count = 0;
    const auto claim = [&](std::uint64_t id) {
        if (id >= count || undelivered[id])
            return false;
        undelivered[id] = 1;
        ++undelivered_count;
        return true;
    };
    for (std::size_t id = 0; id < count; ++id) {
        if (st.pendingDeps[id] > 0)
            claim(id);
    }
    for (std::uint64_t tag : in_flight) {
        if (!claim(tag))
            return false;
    }
    for (const auto &[cycle, id] : st.ready) {
        if (!claim(id))
            return false;
    }
    for (std::size_t node = 0; node < st.sourceQueues.size(); ++node) {
        for (std::uint64_t id : st.sourceQueues[node]) {
            if (!claim(id) || trace.messages[id].src != node)
                return false;
        }
    }
    for (std::size_t id = 0; id < count; ++id) {
        std::uint64_t waiting = 0;
        for (std::uint64_t dep : trace.depsOf(id))
            waiting += undelivered[dep];
        if (waiting != st.pendingDeps[id])
            return false;
    }
    return st.deliveredCount == count - undelivered_count;
}

} // namespace

TraceReplayer::TraceReplayer(NocDevice &noc, const Trace &trace)
    : noc_(noc), trace_(trace)
{
    trace_.validate();
    FT_ASSERT(trace_.n == noc_.config().n, "trace is for a ", trace_.n,
              "x", trace_.n, " NoC, device is ", noc_.config().n, "x",
              noc_.config().n);
    const std::size_t count = trace_.messages.size();
    FT_ASSERT(count <= kMaxIds, "trace has ", count,
              " messages; replay ids are 32-bit");

    dst_.resize(count);
    earliest_.resize(count);
    pendingDeps_.resize(count);
    dependentsAt_.assign(count + 1, 0);
    // Trace::add bounds the dependencies at 32 bits, as this index
    // needs.
    std::size_t total_deps = 0;
    std::size_t free_count = 0;
    for (std::size_t id = 0; id < count; ++id) {
        const TraceMessage &m = trace_.messages[id];
        const auto deps = trace_.depsOf(id);
        dst_[id] = m.dst;
        earliest_[id] = m.earliest;
        pendingDeps_[id] = static_cast<std::uint32_t>(deps.size());
        total_deps += deps.size();
        for (std::uint64_t dep : deps)
            ++dependentsAt_[dep];
        if (deps.empty())
            ++free_count;
    }
    run_.reserve(free_count);
    for (std::size_t id = 0; id < count; ++id) {
        const TraceMessage &m = trace_.messages[id];
        if (trace_.depsOf(id).empty())
            run_.push_back(
                {m.earliest, static_cast<std::uint32_t>(id), m.src});
    }
    // Turn the per-message counts into range ends, then fill every
    // range back to front over descending dependents: the ends become
    // starts and each range lists its dependents in ascending id.
    std::partial_sum(dependentsAt_.begin(), dependentsAt_.end(),
                     dependentsAt_.begin());
    dependents_.resize(total_deps);
    for (std::size_t m = count; m-- > 0;) {
        for (std::uint64_t dep : trace_.depsOf(m))
            dependents_[--dependentsAt_[dep]] =
                static_cast<std::uint32_t>(m);
    }
    // Every generator emits its free messages in this order already;
    // only a loaded or hand-built trace pays for the sort.
    if (!std::is_sorted(run_.begin(), run_.end(), readyBefore))
        std::sort(run_.begin(), run_.end(), readyBefore);
    resetQueues();

    noc_.setDeliverCallback(
        [this](const Packet &p, Cycle when) { onDeliver(p, when); });
}

void
TraceReplayer::resetQueues()
{
    const std::uint32_t nodes = noc_.config().pes();
    sourceQueues_.clear();
    sourceQueues_.reserve(nodes);
    for (std::uint32_t node = 0; node < nodes; ++node)
        sourceQueues_.emplace_back(arena_);
    nonEmpty_.assign((nodes + 63) / 64, 0);
}

void
TraceReplayer::onDeliver(const Packet &p, Cycle when)
{
    ++deliveredCount_;
    lastDelivery_ = when;
    const std::uint64_t id = p.tag;
    FT_ASSERT(id < trace_.messages.size(), "unknown trace message");
    const std::uint32_t end = dependentsAt_[id + 1];
    for (std::uint32_t i = dependentsAt_[id]; i < end; ++i) {
        const std::uint32_t dependent = dependents_[i];
        FT_ASSERT(pendingDeps_[dependent] > 0, "dependency underflow");
        if (--pendingDeps_[dependent] == 0) {
            const TraceMessage &m = trace_.messages[dependent];
            released_.push_back(
                {std::max(m.earliest, when + 1 + m.delayAfterDeps),
                 dependent, m.src});
            std::push_heap(released_.begin(), released_.end(),
                           readyAfter);
        }
    }
}

void
TraceReplayer::enqueue(NodeId src, std::uint32_t id)
{
    sourceQueues_[src].push_back(id);
    nonEmpty_[src / 64] |= std::uint64_t{1} << (src % 64);
}

void
TraceReplayer::offerHead(NodeId node, Cycle now)
{
    SourceQueue &q = sourceQueues_[node];
    const std::uint32_t id = q.front();
    Packet p;
    p.id = injectedCount_ + 1;
    p.src = node;
    p.dst = dst_[id];
    p.created = std::max(earliest_[id], now);
    p.tag = id;
    noc_.offer(p);
    ++injectedCount_;
    q.pop_front();
    if (q.empty())
        nonEmpty_[node / 64] &= ~(std::uint64_t{1} << (node % 64));
}

void
TraceReplayer::tick()
{
    const Cycle now = noc_.now();
    // Move every message due by now to its source FIFO, merging the
    // run with the heap.
    for (;;) {
        const bool run_due =
            runNext_ < run_.size() && run_[runNext_].at <= now;
        const bool heap_due =
            !released_.empty() && released_.front().at <= now;
        if (run_due &&
            !(heap_due && readyBefore(released_.front(), run_[runNext_]))) {
            const Ready &r = run_[runNext_++];
            enqueue(r.src, r.id);
        } else if (heap_due) {
            std::pop_heap(released_.begin(), released_.end(), readyAfter);
            enqueue(released_.back().src, released_.back().id);
            released_.pop_back();
        } else {
            break;
        }
    }
    // Offer in ascending node order. Devices backed by the engine's
    // offer slab expose its occupancy: one virtual call per cycle
    // instead of one per non-empty source.
    const std::uint8_t *pending = noc_.pendingOfferMask();
    for (std::size_t word = 0; word < nonEmpty_.size(); ++word) {
        for (std::uint64_t bits = nonEmpty_[word]; bits != 0;
             bits &= bits - 1) {
            const auto node = static_cast<NodeId>(
                word * 64 + static_cast<unsigned>(std::countr_zero(bits)));
            if (pending ? pending[node] == 0 : !noc_.hasPendingOffer(node))
                offerHead(node, now);
        }
    }
}

bool
TraceReplayer::finished() const
{
    return deliveredCount_ == trace_.messages.size();
}

bool
TraceReplayer::captureState(TraceReplayState &out) const
{
    out = TraceReplayState{};
    out.pendingDeps = pendingDeps_;
    // The rest of the run is ascending already; merge in the sorted
    // heap.
    out.ready.reserve(run_.size() - runNext_ + released_.size());
    for (std::size_t i = runNext_; i < run_.size(); ++i)
        out.ready.emplace_back(run_[i].at, run_[i].id);
    const auto heap_begin = static_cast<std::ptrdiff_t>(out.ready.size());
    for (const Ready &r : released_)
        out.ready.emplace_back(r.at, r.id);
    std::sort(out.ready.begin() + heap_begin, out.ready.end());
    std::inplace_merge(out.ready.begin(), out.ready.begin() + heap_begin,
                       out.ready.end());
    out.sourceQueues.resize(sourceQueues_.size());
    for (std::size_t node = 0; node < sourceQueues_.size(); ++node) {
        out.sourceQueues[node].reserve(sourceQueues_[node].size());
        sourceQueues_[node].forEach([&](std::uint32_t id) {
            out.sourceQueues[node].push_back(id);
        });
    }
    out.deliveredCount = deliveredCount_;
    out.injectedCount = injectedCount_;
    out.lastDelivery = lastDelivery_;
    return true;
}

bool
TraceReplayer::restoreState(const TraceReplayState &st)
{
    if (st.pendingDeps.size() != trace_.messages.size() ||
        st.sourceQueues.size() != sourceQueues_.size()) {
        FT_WARN("trace-replay restore refused: snapshot shape (",
                st.pendingDeps.size(), " message(s), ",
                st.sourceQueues.size(), " source(s)) does not match "
                "the trace");
        return false;
    }
    // Between offer and delivery a message lives in the device.
    std::vector<std::uint64_t> in_flight;
    EngineState engine;
    if (noc_.captureState(engine)) {
        for (const auto &[node, packet] : engine.offers)
            in_flight.push_back(packet.tag);
        for (const Packet &packet : engine.slabPackets)
            in_flight.push_back(packet.tag);
    } else if (!noc_.quiescent()) {
        FT_WARN("trace-replay restore refused: the device holds "
                "packets it cannot report");
        return false;
    }
    if (!describesOneUndeliveredSet(trace_, st, in_flight)) {
        FT_WARN("trace-replay restore refused: its ids, dependency "
                "counters and the device's packets disagree");
        return false;
    }

    pendingDeps_ = st.pendingDeps;
    // A decoded ready list may come in any order.
    run_.clear();
    run_.reserve(st.ready.size());
    for (const auto &[cycle, id] : st.ready)
        run_.push_back({cycle, static_cast<std::uint32_t>(id),
                        trace_.messages[id].src});
    std::sort(run_.begin(), run_.end(), readyBefore);
    runNext_ = 0;
    released_.clear();
    resetQueues();
    for (std::size_t node = 0; node < st.sourceQueues.size(); ++node) {
        for (std::uint64_t id : st.sourceQueues[node])
            enqueue(static_cast<NodeId>(node),
                    static_cast<std::uint32_t>(id));
    }
    deliveredCount_ = st.deliveredCount;
    injectedCount_ = st.injectedCount;
    lastDelivery_ = st.lastDelivery;
    return true;
}

} // namespace fasttrack
