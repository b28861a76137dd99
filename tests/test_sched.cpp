/**
 * @file
 * Scheduler-library contract: the work-stealing pool must be invisible
 * in results (serial, pooled and stolen executions bit-identical), and
 * the sweep cache must be invisible too (hit, miss, disk and corrupt
 * paths all produce the same bytes). Also stress-tests concurrent
 * sweeps sharing the pool (run under TSan in CI).
 */

#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <numeric>
#include <set>
#include <thread>
#include <utility>
#include <vector>

#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "net/wire.hpp"
#include "sched/blob_cache.hpp"
#include "sched/keyed_file.hpp"
#include "sched/work_stealing_pool.hpp"
#include "run_input_variants.hpp"
#include "scratch_dir.hpp"
#include "sim/checkpoint.hpp"
#include "sim/experiment.hpp"
#include "sim/ftd_server.hpp"
#include "sim/remote.hpp"
#include "sim/sweep_cache.hpp"

namespace fasttrack {
namespace {

/** Content hash of a full result (every counter and histogram). */
std::uint64_t
resultHash(const SynthResult &res)
{
    const auto bytes = encodeSynthResult(res);
    sched::Fnv1a h;
    h.addBytes(bytes.data(), bytes.size());
    return h.value();
}

SyntheticWorkload
smallWorkload(double rate, std::uint64_t seed)
{
    SyntheticWorkload workload;
    workload.pattern = TrafficPattern::random;
    workload.injectionRate = rate;
    workload.packetsPerPe = 24;
    workload.seed = seed;
    return workload;
}

/**
 * Pool-path tests run on a pool of their own with a forced participant
 * count: the global pool sizes itself from the machine (possibly a
 * single core, i.e. zero workers), so their coverage must not depend
 * on it.
 */
constexpr unsigned kForcedParticipants = 4;

TEST(SchedPool, PooledParallelMapMatchesSerial)
{
    sched::WorkStealingPool pool(kForcedParticipants);
    ASSERT_EQ(pool.workerCount(), 3u);

    std::vector<std::uint64_t> items(257);
    std::iota(items.begin(), items.end(), 1);
    // Skewed per-item cost so ranges drain unevenly and thieves have
    // something to split.
    auto fn = [](std::uint64_t v) {
        Rng rng(v);
        std::uint64_t acc = v;
        for (std::uint64_t i = 0; i < (v % 97) * 50; ++i)
            acc ^= rng.next();
        return acc;
    };

    const auto serial = parallelMap(pool, items, fn, 1);
    const auto pooled = parallelMap(pool, items, fn, 4);
    EXPECT_EQ(pooled, serial);
    const auto st = pool.stats();
    EXPECT_GE(st.jobs, 1u);
    EXPECT_EQ(st.tasks, items.size());
}

TEST(SchedPool, ThievesDrainABlockedOwnersRange)
{
    // Pin the stolen path: item 0 wedges the submitter (slot 0) while
    // the rest of slot 0's contiguous range is still unclaimed, so
    // some participant must steal to finish the job — and the stolen
    // execution must be invisible in the results.
    sched::WorkStealingPool pool(kForcedParticipants);
    std::vector<int> items(64);
    std::iota(items.begin(), items.end(), 0);
    auto fn = [](int v) {
        if (v == 0) {
            // Relaxed atomic spin: opaque to the optimizer without
            // volatile, whose ++/assignment forms C++20 deprecates.
            std::atomic<int> spin{0};
            while (spin.fetch_add(1, std::memory_order_relaxed) <
                   20'000'000) {
            }
        }
        return v * 7 + 1;
    };
    const auto serial = parallelMap(pool, items, fn, 1);
    const auto pooled = parallelMap(pool, items, fn, 4);
    EXPECT_EQ(pooled, serial);
    const auto st = pool.stats();
    EXPECT_GT(st.steals, 0u);
    EXPECT_GT(st.stolenTasks, 0u);
    EXPECT_EQ(st.tasks, items.size());
}

TEST(SchedPool, NestedParallelMapRunsInline)
{
    // The inner calls name no pool; from inside a task they must run
    // inline, so the outer pool runs only the 16 outer tasks.
    sched::WorkStealingPool pool(kForcedParticipants);
    std::vector<int> outer(16);
    std::iota(outer.begin(), outer.end(), 0);
    const auto out = parallelMap(pool, outer, [](int v) {
        std::vector<int> inner{v, v + 1, v + 2};
        const auto sums = parallelMap(
            inner, [](int w) { return w * 10; }, 8);
        return sums[0] + sums[1] + sums[2];
    }, kForcedParticipants);
    for (std::size_t i = 0; i < out.size(); ++i)
        EXPECT_EQ(out[i], static_cast<int>(30 * i + 30));
    EXPECT_EQ(pool.stats().tasks, outer.size());
}

TEST(SchedPool, ExceptionContractHoldsUnderPool)
{
    sched::WorkStealingPool pool(kForcedParticipants);
    std::vector<int> items(101);
    std::iota(items.begin(), items.end(), 0);
    auto fn = [](int v) -> int {
        if (v % 10 == 7)
            throw std::runtime_error("item " + std::to_string(v));
        return v;
    };
    try {
        parallelMap(pool, items, fn, 8);
        FAIL() << "expected an exception";
    } catch (const std::runtime_error &e) {
        EXPECT_STREQ(e.what(), "item 7");
    }
}

TEST(SchedPool, ConcurrentSweepsShareThePool)
{
    // Several external threads submit sweeps at once; the pool's
    // worker set and the cache's store/lookup paths are shared. Run
    // under TSan this is the data-race stress; everywhere it pins
    // that concurrency does not change results.
    const NocUnderTest nut{"ft", NocConfig::fastTrack(4, 2, 1), 1};
    const std::vector<double> rates{0.1, 0.3, 0.6};

    const auto reference =
        injectionSweep(nut, TrafficPattern::random, rates, 24);
    ASSERT_EQ(reference.size(), rates.size());

    std::vector<std::vector<SweepPoint>> sweeps(4);
    std::vector<std::thread> threads;
    for (auto &slot : sweeps)
        threads.emplace_back([&nut, &rates, &slot] {
            slot = injectionSweep(nut, TrafficPattern::random, rates,
                                  24);
        });
    for (auto &t : threads)
        t.join();

    for (const auto &sweep : sweeps) {
        ASSERT_EQ(sweep.size(), reference.size());
        for (std::size_t i = 0; i < sweep.size(); ++i)
            EXPECT_EQ(resultHash(sweep[i].result),
                      resultHash(reference[i].result))
                << "point " << i;
    }
}

TEST(SchedPool, SweepsIdenticalSerialAndPooled)
{
    // Every sweep point is its own pool item: an injection sweep and
    // a seed list must give the same bytes at --threads 1 as on the
    // pool. Each pass starts from an empty memory tier, with no disk
    // store attached, so both passes really simulate. Built before the
    // thread count moves, the global pool keeps its machine size.
    const sched::WorkStealingPool &pool = sched::ensureGlobalPool();
    const std::uint64_t tasksBefore = pool.stats().tasks;
    const unsigned threads = parallel_detail::defaultThreadsSlot().load();
    ASSERT_TRUE(sweepCache().dir().empty());

    const NocUnderTest nut{"ft", NocConfig::fastTrack(8, 2, 1), 1};
    const std::vector<double> rates{0.05, 0.1, 0.2, 0.35, 0.5, 0.75};
    std::vector<RunPoint> seeds;
    for (std::uint64_t seed = 201; seed <= 205; ++seed) {
        RunPoint point{nut.config, nut.channels};
        point.workload.injectionRate = 0.2;
        point.workload.packetsPerPe = 24;
        point.workload.seed = seed;
        point.maxCycles = 200000;
        seeds.push_back(point);
    }
    std::vector<std::vector<SweepPoint>> sweeps;
    std::vector<std::vector<SynthResult>> reps;
    for (const unsigned n : {1u, 4u}) {
        parallel_detail::setDefaultParallelThreads(n);
        sweepCache().clearMemory();
        sweeps.push_back(
            injectionSweep(nut, TrafficPattern::random, rates, 24, 7));
        reps.push_back(runPoints(seeds));
    }
    parallel_detail::setDefaultParallelThreads(threads);

    ASSERT_EQ(sweeps[1].size(), sweeps[0].size());
    for (std::size_t i = 0; i < sweeps[0].size(); ++i)
        EXPECT_EQ(resultHash(sweeps[1][i].result),
                  resultHash(sweeps[0][i].result))
            << "rate point " << i;
    ASSERT_EQ(reps[1].size(), seeds.size());
    for (std::size_t i = 0; i < seeds.size(); ++i)
        EXPECT_EQ(resultHash(reps[1][i]), resultHash(reps[0][i]))
            << "seed " << seeds[i].workload.seed;
    EXPECT_GE(pool.stats().tasks - tasksBefore,
              rates.size() + seeds.size());
}

TEST(SweepCache, CacheOnAndOffAreBitIdentical)
{
    const NocConfig cfg = NocConfig::fastTrack(4, 2, 1);
    const SyntheticWorkload workload = smallWorkload(0.4, 11);

    const SynthResult uncached =
        runSim({.config = &cfg, .workload = &workload}).synth;
    const SynthResult miss = cachedRunSynthetic(cfg, 1, workload);

    const auto before = sweepCache().stats();
    const SynthResult hit = cachedRunSynthetic(cfg, 1, workload);
    const auto after = sweepCache().stats();

    EXPECT_EQ(resultHash(uncached), resultHash(miss));
    EXPECT_EQ(resultHash(uncached), resultHash(hit));
    EXPECT_EQ(after.hits, before.hits + 1);
}

TEST(SweepCache, CodecRoundTripsAndRejectsTruncation)
{
    const SynthResult res = runSynthetic(
        NocConfig::hoplite(4), 1, smallWorkload(0.5, 3));
    const auto bytes = encodeSynthResult(res);

    SynthResult decoded;
    ASSERT_TRUE(decodeSynthResult(bytes, decoded));
    EXPECT_EQ(resultHash(decoded), resultHash(res));
    EXPECT_EQ(decoded.completed, res.completed);
    EXPECT_EQ(decoded.cycles, res.cycles);

    for (std::size_t cut : {std::size_t{0}, std::size_t{1},
                            bytes.size() / 2, bytes.size() - 1}) {
        std::vector<std::uint8_t> truncated(bytes.begin(),
                                            bytes.begin() + cut);
        SynthResult sink;
        EXPECT_FALSE(decodeSynthResult(truncated, sink))
            << "cut=" << cut;
    }
    auto padded = bytes;
    padded.push_back(0);
    SynthResult sink;
    EXPECT_FALSE(decodeSynthResult(padded, sink));
}

using Bins = std::vector<std::pair<std::uint64_t, std::uint64_t>>;

/** A sweep-cache entry payload written field by field, in the order
 *  visitFields(SynthResult) and visitFields(NocStats) list: the counters
 *  (all zero), the four histograms' (value, count) lists exactly as
 *  given, then cycles, pes, offered rate and the completed flag. */
std::vector<std::uint8_t>
handWrittenEntry(const std::array<Bins, 4> &hists)
{
    net::WireWriter w;
    for (std::size_t i = 0; i < 8 + 2 * kNumInPorts; ++i)
        w.u64(0);
    for (const Bins &bins : hists) {
        w.u64(bins.size());
        for (const auto &[value, count] : bins) {
            w.u64(value);
            w.u64(count);
        }
    }
    w.u64(1234);
    w.u32(16);
    w.f64(0.25);
    w.u8(1);
    return w.take();
}

TEST(SweepCache, HistogramDecodeSumsOutOfOrderAndRepeatedBins)
{
    // Total latency lists its bins in descending order with value 40
    // twice; hop count repeats value 3 around another bin.
    const std::array<Bins, 4> hists = {
        Bins{{70'000, 1}, {40, 2}, {40, 3}, {12, 5}, {7, 1}},
        Bins{{5, 2}},
        Bins{{3, 1}, {9, 2}, {3, 4}},
        Bins{}};
    SynthResult expected;
    expected.cycles = 1234;
    expected.pes = 16;
    expected.offeredRate = 0.25;
    expected.completed = true;
    Histogram *const into[] = {
        &expected.stats.totalLatency, &expected.stats.networkLatency,
        &expected.stats.hopCount, &expected.stats.deflectionCount};
    for (std::size_t h = 0; h < hists.size(); ++h) {
        for (const auto &[value, count] : hists[h]) {
            for (std::uint64_t k = 0; k < count; ++k)
                into[h]->add(value);
        }
    }

    SynthResult decoded;
    ASSERT_TRUE(decodeSynthResult(handWrittenEntry(hists), decoded));
    EXPECT_EQ(decoded.stats.totalLatency.bins(),
              expected.stats.totalLatency.bins());
    EXPECT_EQ(decoded.stats.totalLatency.count(), 12u);
    EXPECT_EQ(decoded.stats.totalLatency.mean(),
              expected.stats.totalLatency.mean());
    EXPECT_EQ(decoded.stats.hopCount.bins(),
              expected.stats.hopCount.bins());
    EXPECT_EQ(encodeSynthResult(decoded), encodeSynthResult(expected));

    std::array<Bins, 4> zero = hists;
    zero[2][1].second = 0;
    SynthResult sink;
    EXPECT_FALSE(decodeSynthResult(handWrittenEntry(zero), sink));
}

TEST(SweepCache, KeySeparatesEveryInput)
{
    // One variant per input field: every one must move the sweep key,
    // and every one but maxCycles must move the checkpoint key — the
    // cycle guard bounds a run but never shapes its trajectory.
    const std::vector<RunInput> inputs = runInputVariants();
    const RunInput &base = inputs.front();
    std::set<std::uint64_t> sweepKeys;
    for (const RunInput &in : inputs) {
        EXPECT_TRUE(sweepKeys
                        .insert(sweepKey(in.config, in.channels,
                                         in.workload, in.maxCycles))
                        .second)
            << in.field;
        const bool moves = checkpointKey(in.config, in.channels,
                                         in.workload) !=
                           checkpointKey(base.config, base.channels,
                                         base.workload);
        EXPECT_EQ(moves, in.field != "base" && in.field != "maxCycles")
            << in.field;
    }
}

TEST(BlobCache, DiskRoundTrip)
{
    const ScratchDir scratch("sched_roundtrip");
    const std::string &dir = scratch.path();
    sched::BlobCache cache("test_cache", 7);
    cache.setDir(dir);

    const std::uint64_t key = 0x1234abcdull;
    cache.store(key, {1, 2, 3, 4, 5});
    ASSERT_TRUE(std::filesystem::exists(cache.entryPath(key)));

    cache.clearMemory();
    const auto loaded = cache.lookup(key);
    ASSERT_TRUE(loaded.has_value());
    EXPECT_EQ(*loaded, (std::vector<std::uint8_t>{1, 2, 3, 4, 5}));
    EXPECT_EQ(cache.stats().diskHits, 1u);

    // A second lookup is served from memory again.
    ASSERT_TRUE(cache.lookup(key).has_value());
    EXPECT_EQ(cache.stats().diskHits, 1u);
}

TEST(BlobCache, CorruptAndTruncatedEntriesAreRejected)
{
    const ScratchDir scratch("sched_corrupt");
    const std::string &dir = scratch.path();
    sched::BlobCache cache("test_cache", 7);
    cache.setDir(dir);

    const std::uint64_t key = 42;
    cache.store(key, {9, 8, 7, 6});
    const std::string path = cache.entryPath(key);

    // Flip one payload byte: the trailing self-check hash must catch
    // it.
    {
        std::fstream f(path, std::ios::in | std::ios::out |
                                 std::ios::binary);
        f.seekp(24);
        const char zero = 0;
        f.write(&zero, 1);
    }
    cache.clearMemory();
    EXPECT_FALSE(cache.lookup(key).has_value());
    EXPECT_EQ(cache.stats().corrupt, 1u);

    // Rewrite, then truncate mid-payload.
    cache.store(key, {9, 8, 7, 6});
    cache.clearMemory();
    std::filesystem::resize_file(path, 26);
    EXPECT_FALSE(cache.lookup(key).has_value());
    EXPECT_EQ(cache.stats().corrupt, 2u);

    // Rewrite, then read through a cache with a newer schema: the
    // stale entry must be rejected, not mis-decoded.
    cache.store(key, {9, 8, 7, 6});
    sched::BlobCache newer("test_cache", 8);
    newer.setDir(dir);
    EXPECT_FALSE(newer.lookup(key).has_value());
    EXPECT_EQ(newer.stats().corrupt, 1u);
}

TEST(BlobCache, FailedRenameLeavesNoTempFile)
{
    // A directory squats on the entry's path, so renaming the written
    // temp file into place fails. The temp file must go with it: the
    // disk cap neither counts nor evicts such names.
    const ScratchDir scratch("sched_failed_rename");
    const std::string &dir = scratch.path();
    sched::BlobCache cache("test_cache", 7);
    cache.setDir(dir);
    const std::uint64_t key = 77;
    std::filesystem::create_directories(cache.entryPath(key));

    cache.store(key, {1, 2, 3});
    for (const auto &entry : std::filesystem::directory_iterator(dir)) {
        EXPECT_EQ(entry.path().filename().string().find(".tmp."),
                  std::string::npos)
            << entry.path();
    }
    EXPECT_EQ(cache.stats().diskWrites, 0u);
    const auto loaded = cache.lookup(key);
    ASSERT_TRUE(loaded.has_value());
    EXPECT_EQ(*loaded, (std::vector<std::uint8_t>{1, 2, 3}));
}

TEST(SweepCache, CorruptDiskEntryIsRecomputed)
{
    const ScratchDir scratch("sched_recompute");
    const std::string &dir = scratch.path();
    const NocConfig cfg = NocConfig::fastTrack(4, 2, 1);
    const SyntheticWorkload workload = smallWorkload(0.3, 5);

    sweepCache().setDir(dir);
    const SynthResult first = cachedRunSynthetic(cfg, 1, workload);
    const std::string path =
        sweepCache().entryPath(sweepKey(cfg, 1, workload));
    ASSERT_TRUE(std::filesystem::exists(path));

    // Corrupt the persisted entry and drop the memory copy: the next
    // cached run must detect the damage, recompute, and still return
    // the same bytes.
    {
        std::fstream f(path, std::ios::in | std::ios::out |
                                 std::ios::binary);
        f.seekp(30);
        const char junk = 0x5a;
        f.write(&junk, 1);
    }
    sweepCache().clearMemory();
    const auto before = sweepCache().stats();
    const SynthResult second = cachedRunSynthetic(cfg, 1, workload);
    const auto after = sweepCache().stats();

    EXPECT_EQ(resultHash(second), resultHash(first));
    EXPECT_EQ(after.corrupt, before.corrupt + 1);

    // An entry that passes BlobCache validation but does not decode is
    // a miss to the one probe behind all three callers: the local run,
    // the remote client's pre-pass and the daemon's pre-pass (an
    // in-process daemon shares this cache). Each recomputes the point.
    const std::uint64_t reference =
        resultHash(runSynthetic(cfg, 1, workload));
    const std::uint64_t key = sweepKey(cfg, 1, workload);
    const std::vector<std::uint8_t> junk{1, 2, 3};
    sweepCache().store(key, junk);
    EXPECT_EQ(resultHash(cachedRunSynthetic(cfg, 1, workload)), reference);

    sweepCache().store(key, junk);
    FtdServer daemon;
    std::string error;
    ASSERT_TRUE(daemon.start(error)) << error;
    RemoteConfig remote;
    remote.endpoints = {net::Endpoint{"127.0.0.1", daemon.boundPort()}};
    remote.useLocalCache = true;
    setRemoteConfig(remote);
    const std::vector<SynthResult> viaDaemon =
        runPoints({{cfg, 1, workload}});
    clearRemoteConfig();
    daemon.stop();
    ASSERT_EQ(viaDaemon.size(), 1u);
    EXPECT_EQ(resultHash(viaDaemon[0]), reference);
    EXPECT_EQ(remoteStats().localCacheHits, 0u);
    EXPECT_EQ(remoteStats().pointsRemote, 1u);
    EXPECT_EQ(remoteStats().remoteCacheHits, 0u);
    EXPECT_EQ(daemon.stats().pointsServed, 1u);
    EXPECT_EQ(daemon.stats().cacheHits, 0u);
    sweepCache().setDir("");
}

TEST(SweepCache, WarmSweepReplaysFromDisk)
{
    // A sweep replayed from a disk store alone (memory dropped, as in
    // a fresh process) is byte-identical, with every point a disk hit
    // and nothing recomputed.
    const ScratchDir scratch("sched_warm_sweep");
    const std::string &dir = scratch.path();
    sweepCache().setDir(dir);
    const NocUnderTest nut{"ft", NocConfig::fastTrack(4, 2, 1), 1};
    const std::vector<double> rates{0.05, 0.2, 0.4, 0.6, 0.8, 1.0};

    const auto cold =
        injectionSweep(nut, TrafficPattern::random, rates, 24, 4242);
    sweepCache().clearMemory();
    const auto before = sweepCache().stats();
    const auto warm =
        injectionSweep(nut, TrafficPattern::random, rates, 24, 4242);
    const auto after = sweepCache().stats();

    EXPECT_EQ(after.diskHits, before.diskHits + rates.size());
    EXPECT_EQ(after.hits, before.hits + rates.size());
    EXPECT_EQ(after.misses, before.misses);
    EXPECT_EQ(after.stores, before.stores);
    ASSERT_EQ(warm.size(), cold.size());
    for (std::size_t i = 0; i < cold.size(); ++i)
        EXPECT_EQ(resultHash(warm[i].result), resultHash(cold[i].result))
            << "rate point " << i;
    sweepCache().setDir("");
}

TEST(BlobCache, EvictionKeepsDiskStoreUnderCap)
{
    const ScratchDir scratch("sched_evict");
    const std::string &dir = scratch.path();
    sched::BlobCache cache("test_cache", 7);
    cache.setDir(dir);
    // Each entry is 24 (header) + 68 (payload) + 8 (trailer) = 100
    // bytes on disk; a 250-byte cap holds two.
    cache.setMaxDiskBytes(250);
    const std::vector<std::uint8_t> payload(68, 0xa5);

    // Eviction is oldest-write-first with the entry path as the
    // tie-break, so ascending keys + spaced writes pin the order.
    for (std::uint64_t key : {1ull, 2ull}) {
        cache.store(key, payload);
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    EXPECT_EQ(cache.diskBytes(), 200u);
    EXPECT_EQ(cache.stats().evictions, 0u);

    // The third write overflows the cap: the oldest entry goes, the
    // one just written is never a victim.
    cache.store(3, payload);
    EXPECT_EQ(cache.stats().evictions, 1u);
    EXPECT_EQ(cache.diskBytes(), 200u);
    EXPECT_FALSE(std::filesystem::exists(cache.entryPath(1)));
    EXPECT_TRUE(std::filesystem::exists(cache.entryPath(2)));
    EXPECT_TRUE(std::filesystem::exists(cache.entryPath(3)));

    // The evicted entry is gone for real (memory dropped too), the
    // survivors still load from disk.
    cache.clearMemory();
    EXPECT_FALSE(cache.lookup(1).has_value());
    ASSERT_TRUE(cache.lookup(2).has_value());
    EXPECT_EQ(*cache.lookup(2), payload);

    // Raising the cap stops eviction.
    cache.setMaxDiskBytes(0);
    cache.store(4, payload);
    cache.store(5, payload);
    EXPECT_EQ(cache.stats().evictions, 1u);
    EXPECT_EQ(cache.diskBytes(), 400u);
}

TEST(BlobCache, DiskBytesCountEachEntryOnce)
{
    const ScratchDir scratch("sched_disk_bytes");
    sched::BlobCache cache("test_cache", 7);
    cache.setDir(scratch.path());
    const auto entry_bytes = [&scratch] {
        std::uint64_t total = 0;
        for (const auto &entry :
             std::filesystem::directory_iterator(scratch.path()))
            total += entry.file_size();
        return total;
    };

    // The first write after setDir, a re-store that replaces its key's
    // file with a larger one, then a second key.
    cache.store(1, std::vector<std::uint8_t>(68, 0xa5));
    EXPECT_EQ(cache.diskBytes(), entry_bytes());
    cache.store(1, std::vector<std::uint8_t>(90, 0x5a));
    EXPECT_EQ(cache.diskBytes(), entry_bytes());
    cache.store(2, std::vector<std::uint8_t>(40, 0x3c));
    EXPECT_EQ(cache.diskBytes(), entry_bytes());
    EXPECT_EQ(entry_bytes(), 90u + 40u + 2 * sched::kKeyedFileOverheadBytes);
}

TEST(BlobCache, MemoryTierStaysUnderItsBudget)
{
    constexpr std::uint64_t budget = sched::BlobCache::kMemoryBudgetBytes;
    const std::vector<std::uint8_t> quarter(budget / 4, 0x3c);
    sched::BlobCache cache("test_cache", 7);

    // Four quarters fill the budget exactly; re-storing one is not
    // counted twice, and makes it the newest insert.
    for (std::uint64_t key : {1ull, 2ull, 3ull, 4ull})
        cache.store(key, quarter);
    cache.store(1, quarter);
    EXPECT_EQ(cache.memoryBytes(), budget);
    EXPECT_EQ(cache.stats().memoryEvictions, 0u);

    // A fifth evicts the oldest insert, which is now key 2.
    cache.store(5, quarter);
    EXPECT_EQ(cache.memoryBytes(), budget);
    EXPECT_EQ(cache.stats().memoryEvictions, 1u);
    EXPECT_FALSE(cache.lookup(2).has_value());
    for (std::uint64_t key : {1ull, 3ull, 4ull, 5ull})
        EXPECT_TRUE(cache.lookup(key).has_value()) << key;

    // The entry just stored is never evicted, even alone over budget.
    const std::vector<std::uint8_t> oversized(budget + 1, 0xc3);
    cache.store(6, oversized);
    EXPECT_EQ(cache.memoryBytes(), budget + 1);
    EXPECT_EQ(cache.stats().memoryEvictions, 5u);
    ASSERT_TRUE(cache.lookup(6).has_value());
    EXPECT_EQ(*cache.lookup(6), oversized);

    telemetry::MetricsRegistry metrics;
    cache.reportTo(metrics);
    metrics.snapshot(0);
    const auto &values = metrics.epochs().back().values;
    EXPECT_EQ(values.at("test_cache.memory_bytes"),
              static_cast<double>(budget + 1));
    EXPECT_EQ(values.at("test_cache.memory_evictions"), 5.0);

    // With a disk store attached, an evicted key comes back as a disk
    // hit.
    const ScratchDir scratch("sched_memory_tier");
    const std::string &dir = scratch.path();
    sched::BlobCache backed("test_cache", 7);
    backed.setDir(dir);
    const std::vector<std::uint8_t> small(64, 0x5a);
    backed.store(1, small);
    backed.store(2, std::vector<std::uint8_t>(budget, 0xa5));
    EXPECT_EQ(backed.stats().memoryEvictions, 1u);
    EXPECT_EQ(backed.memoryBytes(), budget);
    const auto reloaded = backed.lookup(1);
    ASSERT_TRUE(reloaded.has_value());
    EXPECT_EQ(*reloaded, small);
    EXPECT_EQ(backed.stats().diskHits, 1u);
    EXPECT_EQ(backed.stats().misses, 0u);
}

TEST(BlobCache, ForeignHostEntryValidates)
{
    // Build an entry file byte by byte from the documented on-disk
    // format (sched/blob_cache.hpp) — exactly what a different
    // machine, of any endianness, would have produced — and require
    // this host to load it. This is the portability contract the
    // distributed fabric's cross-node cache sharing rests on.
    const ScratchDir scratch("sched_foreign");
    const std::string &dir = scratch.path();
    std::filesystem::create_directories(dir);
    sched::BlobCache cache("test_cache", 7);
    cache.setDir(dir);

    const std::uint64_t key = 0x0123456789abcdefull;
    const std::vector<std::uint8_t> payload = {0x10, 0x20, 0x30,
                                               0x40, 0x50};
    net::WireWriter w;
    w.u32(0x43525446u); // 'FTRC'
    w.u32(7);           // schema
    w.u64(key);
    w.u64(payload.size());
    w.bytes(payload.data(), payload.size());
    sched::Fnv1a check;
    check.addBytes(payload.data(), payload.size());
    w.u64(check.value());
    {
        std::ofstream f(cache.entryPath(key), std::ios::binary);
        ASSERT_TRUE(f.is_open());
        f.write(reinterpret_cast<const char *>(w.buffer().data()),
                static_cast<std::streamsize>(w.size()));
    }

    const auto loaded = cache.lookup(key);
    ASSERT_TRUE(loaded.has_value());
    EXPECT_EQ(*loaded, payload);
    EXPECT_EQ(cache.stats().corrupt, 0u);
    EXPECT_EQ(cache.stats().diskHits, 1u);
}

TEST(SweepCache, KeyAndEntryBytesArePinned)
{
    // Golden values for the v2 (explicitly little-endian) schema. If
    // either of these ever changes, blobs written by released builds
    // would mis-validate across the fleet: bump kSweepCacheSchema
    // and re-pin, never silently repurpose the old schema number.
    EXPECT_EQ(kSweepCacheSchema, 2u);

    const NocConfig cfg = NocConfig::fastTrack(8, 4, 2);
    SyntheticWorkload w;
    w.pattern = TrafficPattern::transpose;
    w.injectionRate = 0.125; // exact in binary
    w.packetsPerPe = 512;
    w.localRadius = 2;
    w.seed = 77;
    EXPECT_EQ(sweepKey(cfg, 2, w, 1'000'000),
              UINT64_C(0xbf78f7256ffa4021));

    // The FNV-1a stream itself feeds words as little-endian bytes, so
    // the same key falls out on any host; pin one primitive case too.
    sched::Fnv1a h;
    h.add(UINT64_C(0x0123456789abcdef));
    EXPECT_EQ(h.value(), UINT64_C(0x37eb3f3347761c55));
}

} // namespace
} // namespace fasttrack
