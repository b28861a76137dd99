/**
 * @file
 * Counter sets: a plain struct of std::uint64_t tallies whose static
 * kCounters array lists every field once, beside the name it exports
 * under. That array is the set's one list: CounterTally bumps and
 * snapshots the fields, addCounters sums two snapshots, and
 * telemetry::exportCounters (telemetry/metrics.hpp) publishes one as
 * <prefix><name>. A new counter is one field plus one entry; a field
 * left out of the list fails the build. Gauges stay out of the list.
 */

#ifndef FT_COMMON_COUNTERS_HPP
#define FT_COMMON_COUNTERS_HPP

#include <atomic>
#include <cstdint>
#include <iterator>

namespace fasttrack {

/** One counter of @p Set: its field and the name it exports under. */
template <typename Set>
struct CounterField
{
    std::uint64_t Set::*field;
    const char *name;
};

/** Add every counter of @p more into @p sum. */
template <typename Set>
void
addCounters(Set &sum, const Set &more)
{
    for (const auto &counter : Set::kCounters)
        sum.*counter.field += more.*counter.field;
}

/**
 * The live counters of one Set, safe to bump and snapshot from any
 * thread. Relaxed throughout: the counters are monotonic tallies read
 * only for reporting, never used to publish or order other data.
 */
template <typename Set>
class CounterTally
{
    static_assert(sizeof(Set) ==
                      std::size(Set::kCounters) * sizeof(std::uint64_t),
                  "every field of a counter set needs its kCounters entry");
    using Ref = std::atomic_ref<std::uint64_t>;
    static_assert(Ref::is_always_lock_free &&
                  Ref::required_alignment <= alignof(std::uint64_t));

  public:
    void bump(std::uint64_t Set::*field, std::uint64_t by = 1)
    {
        Ref(values_.*field).fetch_add(by, std::memory_order_relaxed);
    }

    Set snapshot() const
    {
        Set out;
        for (const auto &counter : Set::kCounters)
            out.*counter.field =
                Ref(values_.*counter.field).load(std::memory_order_relaxed);
        return out;
    }

  private:
    /** Read and written only through Ref once constructed. */
    mutable Set values_;
};

} // namespace fasttrack

#endif // FT_COMMON_COUNTERS_HPP
