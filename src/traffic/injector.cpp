#include "traffic/injector.hpp"

#include "common/logging.hpp"

namespace fasttrack {

SyntheticInjector::SyntheticInjector(NocDevice &noc,
                                     const SyntheticWorkload &workload)
    : noc_(noc),
      workload_(workload),
      destGen_(workload.pattern, noc.config().n, workload.localRadius),
      injectThreshold_(Rng::bernoulliThreshold(workload.injectionRate)),
      rng_(workload.seed)
{
    FT_ASSERT(workload_.injectionRate > 0.0 &&
                  workload_.injectionRate <= 1.0,
              "injection rate must be in (0, 1]: ",
              workload_.injectionRate);
    const std::uint32_t nodes = noc_.config().pes();
    remaining_.assign(nodes, workload_.packetsPerPe);
    queues_.reserve(nodes);
    for (std::uint32_t i = 0; i < nodes; ++i)
        queues_.emplace_back(chunkArena_);
    budgetTotal_ =
        static_cast<std::uint64_t>(nodes) * workload_.packetsPerPe;
}

void
SyntheticInjector::tick()
{
    const Cycle now = noc_.now();
    const std::uint32_t nodes = static_cast<std::uint32_t>(
        queues_.size());
    // One virtual call per cycle instead of one per node: devices
    // backed by the engine's offer slab expose its occupancy directly.
    const std::uint8_t *pending = noc_.pendingOfferMask();
    // Draw from a local copy written back after the loop: every draw
    // inlines, so the generator state can stay in registers across
    // the virtual offer() below instead of round-tripping through
    // this object. Draw order is unchanged: nodes ascending, each
    // node's Bernoulli draw first, then its destination draws.
    Rng rng = rng_;
    for (NodeId node = 0; node < nodes; ++node) {
        if (remaining_[node] > 0 && rng.nextBernoulli(injectThreshold_)) {
            Pending rec;
            rec.id = nextId_++;
            rec.dst = destGen_.dest(node, rng);
            rec.created = now;
            --remaining_[node];
            ++generatedTotal_;
            queues_[node].push_back(rec);
            ++queuedTotal_;
        }
        const bool slot_busy = pending ? pending[node] != 0
                                       : noc_.hasPendingOffer(node);
        if (!queues_[node].empty() && !slot_busy) {
            const Pending &rec = queues_[node].front();
            Packet p;
            p.id = rec.id;
            p.src = node;
            p.dst = rec.dst;
            p.created = rec.created;
            noc_.offer(p);
            queues_[node].pop_front();
            --queuedTotal_;
        }
    }
    rng_ = rng;
}

bool
SyntheticInjector::done() const
{
    return generatedTotal_ == budgetTotal_ && queuedTotal_ == 0 &&
           noc_.quiescent();
}

bool
SyntheticInjector::captureState(InjectorState &out) const
{
    out = InjectorState{};
    out.rng = rng_.state();
    out.remaining = remaining_;
    out.queues.resize(queues_.size());
    for (std::size_t node = 0; node < queues_.size(); ++node) {
        out.queues[node].reserve(queues_[node].size());
        queues_[node].forEach([&](const Pending &rec) {
            out.queues[node].push_back(rec);
        });
    }
    out.nextId = nextId_;
    out.generatedTotal = generatedTotal_;
    return true;
}

bool
SyntheticInjector::restoreState(const InjectorState &st)
{
    const std::size_t nodes = remaining_.size();
    if (st.remaining.size() != nodes || st.queues.size() != nodes) {
        FT_WARN("injector-state restore refused: snapshot is for ",
                st.remaining.size(), " node(s), device has ", nodes);
        return false;
    }
    if (st.generatedTotal > budgetTotal_)
        return false;
    rng_.setState(st.rng);
    remaining_ = st.remaining;
    queues_.clear();
    queues_.reserve(nodes);
    queuedTotal_ = 0;
    for (std::size_t node = 0; node < nodes; ++node) {
        queues_.emplace_back(chunkArena_);
        for (const Pending &rec : st.queues[node])
            queues_.back().push_back(rec);
        queuedTotal_ += st.queues[node].size();
    }
    nextId_ = st.nextId;
    generatedTotal_ = st.generatedTotal;
    return true;
}

} // namespace fasttrack
