/**
 * @file
 * Deterministic parallel map over independent work items. Experiment
 * sweeps run many isolated simulations; each item's result is written
 * to its own slot, so the output is identical to the serial order no
 * matter how the threads interleave.
 *
 * Execution: every call runs on a persistent work-stealing pool
 * (src/sched/work_stealing_pool.hpp), by default the process pool
 * that sched::ensureGlobalPool() creates on first use. The pool is
 * only forward-declared here; its definitions live in the scheduler
 * library, which every caller links.
 */

#ifndef FT_COMMON_PARALLEL_HPP
#define FT_COMMON_PARALLEL_HPP

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <exception>
#include <thread>
#include <utility>
#include <vector>

namespace fasttrack {

namespace sched {
class WorkStealingPool;
/** The process pool, created on first use (sched/work_stealing_pool.hpp). */
WorkStealingPool &ensureGlobalPool();
} // namespace sched

namespace parallel_detail {

inline std::atomic<unsigned> &
defaultThreadsSlot()
{
    static std::atomic<unsigned> value{0};
    return value;
}

/**
 * Configure the worker count used when a parallelMap call does not
 * pass an explicit thread count (0 restores "hardware concurrency").
 * bench_util::parseArgs routes --threads here, so every sweep in a
 * harness honors the flag without threading it through each call
 * site. Set before the first sweep: the global pool sizes itself from
 * this value on first use.
 */
inline void
setDefaultParallelThreads(unsigned threads)
{
    defaultThreadsSlot().store(threads, std::memory_order_relaxed);
}

/** Effective default worker count (never 0). */
inline unsigned
defaultParallelThreads()
{
    const unsigned configured =
        defaultThreadsSlot().load(std::memory_order_relaxed);
    if (configured)
        return configured;
    const unsigned hw = std::thread::hardware_concurrency();
    return hw ? hw : 1u;
}

/**
 * True while the current thread is executing a bulk task (a pool
 * worker or a participating submitter). Nested parallelMap calls run
 * inline serially instead of deadlocking on the pool or
 * oversubscribing the machine.
 */
inline bool &
inBulkWorker()
{
    thread_local bool flag = false;
    return flag;
}

/** pool.runBulk(ctx, task, count, workers, label), callable where the
 *  pool is an incomplete type; defined in sched/work_stealing_pool.cpp. */
void runBulk(sched::WorkStealingPool &pool, void *ctx,
             void (*task)(void *, std::size_t), std::size_t count,
             unsigned workers, const char *label);

} // namespace parallel_detail

/**
 * Apply @p fn to every element of @p items on up to @p threads
 * participants of @p pool and return the results in input order.
 *
 * @p threads 0 (the default) means the configured process default
 * (--threads via bench_util::parseArgs, else hardware concurrency).
 *
 * @p fn must be safe to call concurrently on distinct items (the
 * simulators here share no mutable state between instances).
 *
 * If @p fn throws, the exception is captured per item and the one
 * belonging to the *earliest input index* is rethrown after all
 * participants finish — the same exception a serial loop would
 * surface, so failures are deterministic regardless of thread
 * interleaving. (A task escaping with an exception would otherwise
 * terminate.)
 *
 * @p label names the bulk job in scheduler telemetry (per-worker
 * spans in the exported Chrome trace).
 */
template <typename In, typename Fn>
auto
parallelMap(sched::WorkStealingPool &pool, const std::vector<In> &items,
            Fn fn, unsigned threads = 0, const char *label = "parallelMap")
    -> std::vector<decltype(fn(items.front()))>
{
    using Out = decltype(fn(items.front()));
    std::vector<Out> results(items.size());
    if (items.empty())
        return results;

    if (threads == 0)
        threads = parallel_detail::defaultParallelThreads();
    threads = std::max(1u, std::min<unsigned>(
                               threads,
                               static_cast<unsigned>(items.size())));
    if (threads == 1 || parallel_detail::inBulkWorker()) {
        for (std::size_t i = 0; i < items.size(); ++i)
            results[i] = fn(items[i]);
        return results;
    }

    std::vector<std::exception_ptr> errors(items.size());
    struct Ctx
    {
        const std::vector<In> *items;
        std::vector<Out> *results;
        std::vector<std::exception_ptr> *errors;
        Fn *fn;
    } ctx{&items, &results, &errors, &fn};
    parallel_detail::runBulk(
        pool, &ctx,
        [](void *opaque, std::size_t i) {
            auto *c = static_cast<Ctx *>(opaque);
            try {
                (*c->results)[i] = (*c->fn)((*c->items)[i]);
            } catch (...) {
                (*c->errors)[i] = std::current_exception();
            }
        },
        items.size(), threads, label);

    for (const std::exception_ptr &e : errors) {
        if (e)
            std::rethrow_exception(e);
    }
    return results;
}

/** parallelMap on the process pool (sched::ensureGlobalPool()). */
template <typename In, typename Fn>
auto
parallelMap(const std::vector<In> &items, Fn fn, unsigned threads = 0,
            const char *label = "parallelMap")
    -> std::vector<decltype(fn(items.front()))>
{
    return parallelMap(sched::ensureGlobalPool(), items, std::move(fn),
                       threads, label);
}

} // namespace fasttrack

#endif // FT_COMMON_PARALLEL_HPP
