/**
 * @file
 * Synthetic open/closed-loop traffic injection: every PE generates a
 * fixed budget of packets (the paper uses 1K packets/PE) as a
 * Bernoulli process at a configured injection rate, queues them at the
 * source, and offers them to the NoC.
 */

#ifndef FT_TRAFFIC_INJECTOR_HPP
#define FT_TRAFFIC_INJECTOR_HPP

#include <array>
#include <concepts>
#include <type_traits>
#include <vector>

#include "noc/noc_device.hpp"
#include "traffic/chunked_queue.hpp"
#include "traffic/pattern.hpp"

namespace fasttrack {

/**
 * Compact queued-packet record of the injector backlogs. Only
 * identity, destination and the creation stamp exist before
 * injection; materializing the full Packet lazily at offer time
 * halves the memory traffic of a deep source backlog.
 */
struct PendingPacket
{
    std::uint64_t id = 0;
    Cycle created = 0;
    NodeId dst = kInvalidNode;
};

/** Hand every PendingPacket field to @p f, in declaration order (see
 *  visitFields(NocConfig) in noc/config.hpp). */
template <typename P, typename F>
    requires std::same_as<std::remove_const_t<P>, PendingPacket>
decltype(auto)
visitFields(P &pending, F &&f)
{
    auto &[id, created, dst] = pending;
    return f(id, created, dst);
}

/** Parameters of one synthetic run. */
struct SyntheticWorkload
{
    TrafficPattern pattern = TrafficPattern::random;
    /** Packet-generation probability per PE per cycle (0..1]. */
    double injectionRate = 0.1;
    /** Closed-workload budget per PE (paper: 1024). */
    std::uint32_t packetsPerPe = 1024;
    /** LOCAL pattern neighbourhood radius. */
    std::uint32_t localRadius = 2;
    std::uint64_t seed = 1;
};

/** Hand every SyntheticWorkload field to @p f, in declaration order
 *  (see visitFields(NocConfig) in noc/config.hpp). */
template <typename Workload, typename F>
    requires std::same_as<std::remove_const_t<Workload>,
                          SyntheticWorkload>
decltype(auto)
visitFields(Workload &workload, F &&f)
{
    auto &[pattern, injectionRate, packetsPerPe, localRadius, seed] =
        workload;
    return f(pattern, injectionRate, packetsPerPe, localRadius, seed);
}

/**
 * Serializable state of one SyntheticInjector (sim/checkpoint.hpp):
 * the RNG stream, per-node generation budgets and source backlogs,
 * and the id/generation counters. Everything else the injector holds
 * is re-derived from the workload at construction.
 */
struct InjectorState
{
    /** xoshiro256** generator words. */
    std::array<std::uint64_t, 4> rng{};
    /** Per-node packets still to generate. */
    std::vector<std::uint32_t> remaining;
    /** Per-node source backlog, front first. */
    std::vector<std::vector<PendingPacket>> queues;
    std::uint64_t nextId = 1;
    std::uint64_t generatedTotal = 0;
};

/** Hand every InjectorState field to @p f, in declaration order (see
 *  visitFields(NocConfig) in noc/config.hpp). */
template <typename State, typename F>
    requires std::same_as<std::remove_const_t<State>, InjectorState>
decltype(auto)
visitFields(State &state, F &&f)
{
    auto &[rng, remaining, queues, nextId, generatedTotal] = state;
    return f(rng, remaining, queues, nextId, generatedTotal);
}

/**
 * Drives a NocDevice with a SyntheticWorkload. Call tick() once per
 * cycle *before* the device's step(); poll done() to finish.
 */
class SyntheticInjector
{
  public:
    SyntheticInjector(NocDevice &noc, const SyntheticWorkload &workload);

    /** Generate this cycle's packets and top up per-node offers. */
    void tick();

    /** All packets generated, offered, injected and delivered. */
    bool done() const;

    /** Packets still waiting in source queues (not yet offered). */
    std::uint64_t queued() const { return queuedTotal_; }
    std::uint64_t generated() const { return generatedTotal_; }
    std::uint64_t budget() const { return budgetTotal_; }

    /** Capture the injector's complete dynamic state (always
     *  succeeds; the bool mirrors the device-side convention). */
    bool captureState(InjectorState &out) const;
    /** Replay a captured state; false when the node count does not
     *  match this injector's device. Generation then continues
     *  bit-identically with the uninterrupted run. */
    bool restoreState(const InjectorState &st);

  private:
    using Pending = PendingPacket;

    NocDevice &noc_;
    SyntheticWorkload workload_;
    DestinationGenerator destGen_;
    /** Rng::bernoulliThreshold of the injection rate. */
    std::uint64_t injectThreshold_;
    Rng rng_;
    std::vector<std::uint32_t> remaining_;
    /** Declared before queues_ so every queue dies first. */
    ChunkArena chunkArena_{ChunkedQueue<Pending>::chunkBytes()};
    std::vector<ChunkedQueue<Pending>> queues_;
    std::uint64_t nextId_ = 1;
    std::uint64_t generatedTotal_ = 0;
    std::uint64_t queuedTotal_ = 0;
    std::uint64_t budgetTotal_ = 0;
};

} // namespace fasttrack

#endif // FT_TRAFFIC_INJECTOR_HPP
