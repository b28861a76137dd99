/**
 * @file
 * Process-wide persistent work-stealing thread pool backing every
 * parallelMap sweep (see common/parallel.hpp).
 *
 * Why a pool: the sweep layer used to spawn and join fresh
 * std::threads on every parallelMap call, so a bench binary that runs
 * dozens of sweeps paid thread creation/teardown per sweep. The pool
 * keeps its workers resident for the process lifetime and hands them
 * bulk jobs; a sweep submission is one mutex push + wakeup.
 *
 * Scheduling: each bulk job partitions its index space [0, count)
 * into one contiguous range per participant. A participant owns a
 * single-word atomic range descriptor in the Chase-Lev style — the
 * owner claims indices from the bottom (lo) end with a cheap CAS,
 * thieves split off the top (hi) half of a victim's remaining range
 * with a competing CAS on the same word. Every transfer is one
 * compare-exchange on one 64-bit word, so the scheme is lock-free,
 * ABA-safe (see work_stealing_pool.cpp) and clean under TSan.
 *
 * Determinism: the pool only decides *where* an index executes.
 * parallelMap writes each result into its input-index slot and
 * aggregations run over those slots in input order, so pooled, stolen
 * and serial executions are bit-identical (tests/test_sched.cpp).
 *
 * Telemetry: when a telemetry sink is installed, each participant
 * records one host-side phase span per job ("label [w<slot>]"), so
 * the exported Chrome trace shows sweep occupancy per worker;
 * reportTo() publishes job/task/steal counters and pool gauges
 * through a MetricsRegistry.
 */

#ifndef FT_SCHED_WORK_STEALING_POOL_HPP
#define FT_SCHED_WORK_STEALING_POOL_HPP

#include <atomic>
#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

#include "common/counters.hpp"
#include "common/parallel.hpp"
#include "common/thread_annotations.hpp"
#include "telemetry/metrics.hpp"

namespace fasttrack::sched {

class WorkStealingPool
{
  public:
    /**
     * @param concurrency total concurrent executors a bulk job may
     * use, *including* the submitting caller (which always
     * participates); the pool spawns concurrency - 1 resident worker
     * threads. 0 means parallel_detail::defaultParallelThreads().
     */
    explicit WorkStealingPool(unsigned concurrency = 0);
    ~WorkStealingPool();
    WorkStealingPool(const WorkStealingPool &) = delete;
    WorkStealingPool &operator=(const WorkStealingPool &) = delete;

    /** Resident worker threads (excludes participating callers). */
    unsigned workerCount() const
    {
        return static_cast<unsigned>(threads_.size());
    }

    /** Run task(ctx, i) exactly once for every i in [0, count) on at
     *  most @p workers participants. Blocks the caller, which
     *  participates as the job's first executor. Safe to call from
     *  several external threads concurrently; jobs share the worker
     *  set. @p task must not throw (parallelMap wraps the user
     *  function). */
    void runBulk(void *ctx, void (*task)(void *, std::size_t),
                 std::size_t count, unsigned workers, const char *label);

    /** Lifetime totals (a counter set, common/counters.hpp). runBulk
     *  only returns after every participant published its
     *  contribution, so reads are exact whenever no job is in
     *  flight. */
    struct Counters
    {
        /** Bulk jobs dispatched to the worker set. */
        std::uint64_t jobs = 0;
        /** Jobs executed inline (single participant). */
        std::uint64_t inlineJobs = 0;
        /** Task invocations run by pool participants. */
        std::uint64_t tasks = 0;
        /** Successful range-steal operations. */
        std::uint64_t steals = 0;
        /** Task indices transferred by those steals. */
        std::uint64_t stolenTasks = 0;

        /** Exported as sched.pool.jobs, ... */
        static constexpr CounterField<Counters> kCounters[] = {
            {&Counters::jobs, "jobs"},
            {&Counters::inlineJobs, "inline_jobs"},
            {&Counters::tasks, "tasks"},
            {&Counters::steals, "steals"},
            {&Counters::stolenTasks, "stolen_tasks"},
        };
    };
    /** The counters plus the queue-depth watermark, a gauge. */
    struct Stats : Counters
    {
        /** Peak number of concurrently queued jobs. */
        std::uint64_t peakJobs = 0;
    };
    Stats stats() const;

    /** Publish pool counters/gauges as sched.pool.* metrics. */
    void reportTo(telemetry::MetricsRegistry &metrics) const;

  private:
    struct Job;

    void workerLoop();
    /** Work @p job from @p slot until no claimable/stealable work
     *  remains; returns the number of tasks this participant ran. */
    std::uint64_t participate(Job &job, unsigned slot);

    std::vector<std::thread> threads_;
    mutable Mutex jobsMutex_;
    CondVar jobsCv_;
    std::vector<std::shared_ptr<Job>> jobs_ FT_GUARDED_BY(jobsMutex_);
    /** Bumped whenever jobs_ changes; sleeping workers wait on it. */
    std::uint64_t jobsGeneration_ FT_GUARDED_BY(jobsMutex_) = 0;
    bool stop_ FT_GUARDED_BY(jobsMutex_) = false;

    CounterTally<Counters> counters_;
    std::atomic<std::uint64_t> peakJobs_{0};
};

/**
 * The process pool every parallelMap without a pool argument runs on:
 * created on first use with parallel_detail::defaultParallelThreads()
 * participants, joined during static destruction. The tools that take
 * --threads call it right after setting that default, which fixes the
 * size early and lets an atexit hook registered afterwards run before
 * the pool's teardown.
 */
WorkStealingPool &ensureGlobalPool();

} // namespace fasttrack::sched

#endif // FT_SCHED_WORK_STEALING_POOL_HPP
