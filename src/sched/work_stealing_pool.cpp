#include "sched/work_stealing_pool.hpp"

#include <algorithm>
#include <string>

#include "common/logging.hpp"
#include "telemetry/sink.hpp"

namespace fasttrack::sched {

namespace {

/**
 * Range descriptors pack [lo, hi) into one 64-bit word: owner claims
 * lo with CAS pack(lo,hi) -> pack(lo+1,hi), a thief splits off the
 * top half with CAS pack(lo,hi) -> pack(lo,hi-take). ABA cannot
 * misfire: a slot's word is only replaced wholesale when the slot is
 * empty (lo == hi), and the replacement is a freshly stolen range
 * whose indices are all unclaimed — for a stale CAS expecting a
 * previously seen non-empty (lo, hi) to succeed, every index of
 * [lo, hi) would have to be unclaimed again, and claimed indices
 * never return to any range.
 */
constexpr std::uint64_t
pack(std::uint32_t lo, std::uint32_t hi)
{
    return (static_cast<std::uint64_t>(lo) << 32) | hi;
}

constexpr std::uint32_t
rangeLo(std::uint64_t r)
{
    return static_cast<std::uint32_t>(r >> 32);
}

constexpr std::uint32_t
rangeHi(std::uint64_t r)
{
    return static_cast<std::uint32_t>(r);
}

} // namespace

struct WorkStealingPool::Job
{
    void *ctx;
    void (*task)(void *, std::size_t);
    std::size_t count;
    const char *label;
    unsigned slots;
    /** Per-participant remaining index range (see pack()). */
    std::vector<std::atomic<std::uint64_t>> ranges;
    /** 1 while a participant occupies the slot. Released on exit (a
     *  leaving participant's range is always empty), so a slot freed
     *  by a fruitless joiner can be reused by a later worker. */
    std::vector<std::atomic<std::uint8_t>> slotTaken;
    /** Tasks finished (not merely claimed). done == count completes
     *  the job; the release/acquire pair on this counter publishes
     *  every task's writes to the waiting submitter. */
    std::atomic<std::size_t> done{0};

    Mutex m;
    CondVar cv;
    bool complete FT_GUARDED_BY(m) = false;

    Job(void *ctx_, void (*task_)(void *, std::size_t),
        std::size_t count_, const char *label_, unsigned slots_)
        : ctx(ctx_), task(task_), count(count_), label(label_),
          slots(slots_), ranges(slots_), slotTaken(slots_)
    {
        for (unsigned p = 0; p < slots; ++p) {
            const auto lo = static_cast<std::uint32_t>(
                count * p / slots);
            const auto hi = static_cast<std::uint32_t>(
                count * (p + 1) / slots);
            ranges[p].store(pack(lo, hi), std::memory_order_relaxed);
            slotTaken[p].store(0, std::memory_order_relaxed);
        }
        // The submitter always participates in slot 0.
        slotTaken[0].store(1, std::memory_order_relaxed);
    }
};

WorkStealingPool::WorkStealingPool(unsigned concurrency)
{
    if (concurrency == 0)
        concurrency = parallel_detail::defaultParallelThreads();
    const unsigned workers = concurrency > 1 ? concurrency - 1 : 0;
    threads_.reserve(workers);
    for (unsigned w = 0; w < workers; ++w)
        threads_.emplace_back([this] { workerLoop(); });
}

WorkStealingPool::~WorkStealingPool()
{
    {
        MutexLock lk(jobsMutex_);
        stop_ = true;
        ++jobsGeneration_;
    }
    jobsCv_.notify_all();
    for (std::thread &t : threads_)
        t.join();
}

void
WorkStealingPool::runBulk(void *ctx, void (*task)(void *, std::size_t),
                          std::size_t count, unsigned workers,
                          const char *label)
{
    if (count == 0)
        return;
    FT_ASSERT(count <= 0xffffffffull,
              "bulk job too large for 32-bit range words");
    const unsigned cap = std::max(
        1u, std::min({workers,
                      static_cast<unsigned>(std::min<std::size_t>(
                          count, 0xffffffffull)),
                      workerCount() + 1}));
    if (cap == 1 || parallel_detail::inBulkWorker()) {
        // Degenerate or nested call: execute inline (parallelMap
        // normally routes these to its serial path already).
        counters_.bump(&Counters::inlineJobs);
        for (std::size_t i = 0; i < count; ++i)
            task(ctx, i);
        counters_.bump(&Counters::tasks, count);
        return;
    }

    auto job = std::make_shared<Job>(ctx, task, count, label, cap);
    {
        MutexLock lk(jobsMutex_);
        jobs_.push_back(job);
        ++jobsGeneration_;
        const auto depth = static_cast<std::uint64_t>(jobs_.size());
        // Relaxed: the watermark is only ever updated here, under
        // jobsMutex_, so the read-modify-write cannot race itself.
        if (depth > peakJobs_.load(std::memory_order_relaxed))
            peakJobs_.store(depth, std::memory_order_relaxed);
    }
    jobsCv_.notify_all();
    counters_.bump(&Counters::jobs);

    // The submitter works its own job; its tasks may not call back
    // into the pool (nested parallelMap runs inline).
    bool &nested = parallel_detail::inBulkWorker();
    nested = true;
    participate(*job, 0);
    nested = false;

    {
        MutexLock lk(job->m);
        while (!job->complete)
            job->cv.wait(job->m);
    }
    {
        MutexLock lk(jobsMutex_);
        jobs_.erase(std::remove(jobs_.begin(), jobs_.end(), job),
                    jobs_.end());
        ++jobsGeneration_;
    }
    // Wake workers blocked on this job's saturation so they rescan.
    jobsCv_.notify_all();

    // All tasks are done, but participants may still be inside
    // participate() between their last task and their counter
    // accumulation. Wait for every slot to be released (counters are
    // published before the release store) so stats() is settled — and
    // no thread touches the job — once runBulk returns.
    for (unsigned s = 0; s < job->slots; ++s) {
        while (job->slotTaken[s].load(std::memory_order_acquire) != 0)
            std::this_thread::yield();
    }
}

std::uint64_t
WorkStealingPool::participate(Job &job, unsigned slot)
{
    telemetry::TraceSink *sink = telemetry::installed();
    const std::uint64_t spanStart = sink ? sink->hostNowUs() : 0;
    std::uint64_t ran = 0, steals = 0, stolen = 0;

    std::atomic<std::uint64_t> &own = job.ranges[slot];
    // Ordering note: every transfer of index ownership is an acq_rel
    // CAS on one range word, so a claim and a competing steal of the
    // same indices are totally ordered — exactly one succeeds, and
    // the winner sees the loser's update on retry (acquire failure
    // order). No task data rides on these words; task-result
    // visibility is published solely through job.done (acq_rel).
    for (;;) {
        // Claim the bottom index of the own range.
        std::uint64_t cur = own.load(std::memory_order_acquire);
        bool claimed = false;
        std::uint32_t idx = 0;
        while (rangeLo(cur) < rangeHi(cur)) {
            if (own.compare_exchange_weak(
                    cur, pack(rangeLo(cur) + 1, rangeHi(cur)),
                    std::memory_order_acq_rel,
                    std::memory_order_acquire)) {
                idx = rangeLo(cur);
                claimed = true;
                break;
            }
        }
        if (!claimed) {
            // Own range dry: steal the top half of a victim's range.
            bool stole = false;
            for (unsigned off = 1; off < job.slots && !stole; ++off) {
                const unsigned v = (slot + off) % job.slots;
                std::atomic<std::uint64_t> &victim = job.ranges[v];
                std::uint64_t vcur =
                    victim.load(std::memory_order_acquire);
                while (rangeLo(vcur) < rangeHi(vcur)) {
                    const std::uint32_t len =
                        rangeHi(vcur) - rangeLo(vcur);
                    const std::uint32_t take = (len + 1) / 2;
                    if (victim.compare_exchange_weak(
                            vcur,
                            pack(rangeLo(vcur), rangeHi(vcur) - take),
                            std::memory_order_acq_rel,
                            std::memory_order_acquire)) {
                        own.store(pack(rangeHi(vcur) - take,
                                       rangeHi(vcur)),
                                  std::memory_order_release);
                        ++steals;
                        stolen += take;
                        stole = true;
                        break;
                    }
                }
            }
            if (!stole)
                break; // No visible work anywhere; in-flight tasks
                       // (if any) finish on their current holders.
            continue;
        }

        job.task(job.ctx, idx);
        ++ran;
        if (job.done.fetch_add(1, std::memory_order_acq_rel) + 1 ==
            job.count) {
            {
                MutexLock lk(job.m);
                job.complete = true;
            }
            job.cv.notify_all();
        }
    }

    counters_.bump(&Counters::tasks, ran);
    counters_.bump(&Counters::steals, steals);
    counters_.bump(&Counters::stolenTasks, stolen);
    if (sink && ran)
        sink->recordPhase(std::string(job.label) + " [w" +
                              std::to_string(slot) + "]",
                          spanStart, sink->hostNowUs() - spanStart);
    // Release the slot last: the submitter spin-waits on it to know
    // this participant's counters (above) are published and the job
    // is no longer referenced from this thread.
    job.slotTaken[slot].store(0, std::memory_order_release);
    return ran;
}

void
WorkStealingPool::workerLoop()
{
    // Pool workers only ever execute bulk tasks; any parallelMap a
    // task performs must run inline rather than re-enter the pool.
    parallel_detail::inBulkWorker() = true;

    MutexLock lk(jobsMutex_);
    std::uint64_t seen = jobsGeneration_;
    for (;;) {
        std::shared_ptr<Job> job;
        unsigned slot = 0;
        for (const std::shared_ptr<Job> &candidate : jobs_) {
            // Acquire pairs with the acq_rel fetch_add in
            // participate(): a job observed complete here has all of
            // its task writes visible, so skipping it is safe.
            if (candidate->done.load(std::memory_order_acquire) >=
                candidate->count)
                continue;
            for (unsigned s = 0; s < candidate->slots; ++s) {
                std::uint8_t free = 0;
                if (candidate->slotTaken[s].compare_exchange_strong(
                        free, 1, std::memory_order_acq_rel,
                        std::memory_order_relaxed)) {
                    job = candidate;
                    slot = s;
                    break;
                }
            }
            if (job)
                break;
        }
        if (job) {
            seen = jobsGeneration_;
            lk.unlock();
            const std::uint64_t ran = participate(*job, slot);
            lk.lock();
            // A fruitful pass may mean more queued work; rescan. A
            // fruitless one means the job's remaining tasks are in
            // flight on other participants — sleep until the job set
            // changes rather than spinning on the claim/steal race.
            if (ran > 0)
                continue;
        }
        if (stop_)
            return;
        while (!stop_ && jobsGeneration_ == seen)
            jobsCv_.wait(jobsMutex_);
        seen = jobsGeneration_;
    }
}

WorkStealingPool::Stats
WorkStealingPool::stats() const
{
    return {counters_.snapshot(),
            peakJobs_.load(std::memory_order_relaxed)};
}

void
WorkStealingPool::reportTo(telemetry::MetricsRegistry &metrics) const
{
    const Stats s = stats();
    telemetry::exportCounters(metrics, "sched.pool.", s);
    metrics.gauge("sched.pool.workers") =
        static_cast<double>(workerCount());
    metrics.gauge("sched.pool.peak_jobs") =
        static_cast<double>(s.peakJobs);
}

WorkStealingPool &
ensureGlobalPool()
{
    // Joined during static destruction, so no parallelMap may run from
    // an atexit hook or a static destructor: it would submit to a
    // destroyed pool. None does. The one atexit hook, bench's
    // --cache-stats writer (writeCacheStatsAtExit), only reads these
    // counters, and parseArgs registers it after building the pool, so
    // it runs before the teardown.
    static WorkStealingPool pool(parallel_detail::defaultParallelThreads());
    return pool;
}

} // namespace fasttrack::sched

void
fasttrack::parallel_detail::runBulk(sched::WorkStealingPool &pool,
                                    void *ctx,
                                    void (*task)(void *, std::size_t),
                                    std::size_t count, unsigned workers,
                                    const char *label)
{
    pool.runBulk(ctx, task, count, workers, label);
}
