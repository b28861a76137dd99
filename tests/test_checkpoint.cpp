/**
 * @file
 * Checkpoint/restore and the RunRequest API: sliced runs must be
 * bit-identical to uninterrupted ones (golden FNV stats hashes) for
 * hoplite and FastTrack variants under synthetic and trace
 * workloads; snapshot files must survive the same hostile-input
 * battery the blob cache does (test_sched.cpp); and the SimConfig
 * field set / cycle-guard default are pinned against silent drift.
 */

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <limits>
#include <string>
#include <type_traits>
#include <vector>

#include <gtest/gtest.h>
#include <sys/resource.h>

#include "common/fnv1a.hpp"
#include "golden_hash.hpp"
#include "net/wire.hpp"
#include "noc/network.hpp"
#include "scratch_dir.hpp"
#include "sim/checkpoint.hpp"
#include "sim/simulation.hpp"
#include "sim/sweep_cache.hpp"
#include "workloads/dataflow.hpp"
#include "workloads/mp_overlay.hpp"
#include "workloads/spmv.hpp"

namespace fasttrack {
namespace {

SyntheticWorkload
checkpointWorkload()
{
    SyntheticWorkload w;
    w.pattern = TrafficPattern::random;
    w.injectionRate = 0.5;
    w.packetsPerPe = 192;
    w.seed = 11;
    return w;
}

/**
 * Run (config, workload) uninterrupted, then as a chain of slices —
 * every slice snapshots each `slice` cycles and resumes from the
 * previous slice's latest file — and require bit-identical stats.
 */
void
expectSlicedSyntheticMatchesWhole(const NocConfig &cfg,
                                  const std::string &leaf)
{
    const SyntheticWorkload w = checkpointWorkload();
    const RunResult whole =
        runSim({.config = &cfg, .workload = &w});
    ASSERT_TRUE(whole.synth.completed);
    ASSERT_GT(whole.synth.cycles, 16u);

    const ScratchDir scratch("ckpt_" + leaf);
    const std::string &dir = scratch.path();
    const Cycle slice = whole.synth.cycles / 4 + 1;
    RunResult last;
    std::uint64_t written = 0;
    int resumes = 0;
    for (int i = 1; i <= 6; ++i) {
        const bool final_slice = i == 6;
        last = runSim(
            {.config = &cfg,
             .workload = &w,
             .sim = {.maxCycles =
                         final_slice ? kDefaultMaxCycles : slice * i,
                     .snapshotEveryCycles = slice,
                     .snapshotDir = dir,
                     .resumeFrom = dir}});
        written += last.snapshotsWritten;
        if (last.resumed)
            ++resumes;
        if (last.synth.completed)
            break;
    }
    EXPECT_TRUE(last.synth.completed);
    EXPECT_GT(written, 0u);
    EXPECT_GT(resumes, 0);
    EXPECT_EQ(last.synth.cycles, whole.synth.cycles);
    EXPECT_EQ(hashStats(last.synth.stats), hashStats(whole.synth.stats))
        << cfg.describe();
}

void
expectSlicedTraceMatchesWhole(const NocConfig &cfg, const Trace &trace,
                              const std::string &leaf)
{
    const RunResult whole = runSim({.config = &cfg, .trace = &trace});
    ASSERT_TRUE(whole.trace.completed);

    const ScratchDir scratch("ckpt_" + leaf);
    const std::string &dir = scratch.path();
    const Cycle slice = whole.trace.completion / 4 + 1;
    RunResult last;
    std::uint64_t written = 0;
    int resumes = 0;
    for (int i = 1; i <= 6; ++i) {
        const bool final_slice = i == 6;
        last = runSim(
            {.config = &cfg,
             .trace = &trace,
             .sim = {.maxCycles =
                         final_slice ? kDefaultMaxCycles : slice * i,
                     .snapshotEveryCycles = slice,
                     .snapshotDir = dir,
                     .resumeFrom = dir}});
        written += last.snapshotsWritten;
        if (last.resumed)
            ++resumes;
        if (last.trace.completed)
            break;
    }
    EXPECT_TRUE(last.trace.completed);
    EXPECT_GT(written, 0u);
    EXPECT_GT(resumes, 0);
    EXPECT_EQ(last.trace.completion, whole.trace.completion);
    EXPECT_EQ(hashStats(last.trace.stats), hashStats(whole.trace.stats))
        << cfg.describe() << " on " << trace.name;
}

/** Step @p injector and @p noc to completion (bounded). */
void
runToDone(SyntheticInjector &injector, Network &noc)
{
    while (!injector.done() && noc.now() < 1'000'000) {
        injector.tick();
        noc.step();
    }
}

/**
 * Checkpoint a hand-driven run at the first cycle where its PEs are
 * in every phase at once: one has spent its budget and emptied its
 * source queue, another still holds a backlog, and another is still
 * generating. Finishing the run in a fresh device and injector
 * restored from that checkpoint must be FNV-identical to the
 * uninterrupted run.
 */
void
expectMidRunInjectorResumeMatchesWhole(TrafficPattern pattern)
{
    const NocConfig cfg = NocConfig::hoplite(8);
    SyntheticWorkload w;
    w.pattern = pattern;
    w.injectionRate = 0.2;
    w.packetsPerPe = 32;
    w.seed = 31;

    Network whole(cfg);
    SyntheticInjector wholeInjector(whole, w);
    runToDone(wholeInjector, whole);
    ASSERT_TRUE(wholeInjector.done());

    Network first(cfg);
    SyntheticInjector firstInjector(first, w);
    InjectorState injector;
    bool mixed = false;
    while (!mixed && !firstInjector.done()) {
        firstInjector.tick();
        first.step();
        ASSERT_TRUE(firstInjector.captureState(injector));
        bool spent = false, backlog = false, generating = false;
        for (std::size_t node = 0; node < injector.queues.size();
             ++node) {
            spent |= injector.remaining[node] == 0 &&
                     injector.queues[node].empty();
            backlog |= !injector.queues[node].empty();
            generating |= injector.remaining[node] > 0;
        }
        mixed = spent && backlog && generating;
    }
    ASSERT_TRUE(mixed) << toString(pattern);
    EngineState engine;
    ASSERT_TRUE(first.captureState(engine));

    Network resumed(cfg);
    ASSERT_TRUE(resumed.restoreState(engine));
    SyntheticInjector resumedInjector(resumed, w);
    ASSERT_TRUE(resumedInjector.restoreState(injector));
    runToDone(resumedInjector, resumed);
    ASSERT_TRUE(resumedInjector.done());
    EXPECT_EQ(resumed.now(), whole.now()) << toString(pattern);
    EXPECT_EQ(hashStats(resumed.statsSnapshot()),
              hashStats(whole.statsSnapshot()))
        << toString(pattern);
}

TEST(Checkpoint, MidRunInjectorResumeIsBitIdenticalLocal)
{
    expectMidRunInjectorResumeMatchesWhole(TrafficPattern::local);
}

TEST(Checkpoint, MidRunInjectorResumeIsBitIdenticalRandom)
{
    expectMidRunInjectorResumeMatchesWhole(TrafficPattern::random);
}

TEST(Checkpoint, SimConfigFieldSetIsPinned)
{
    static_assert(std::is_aggregate_v<SimConfig>,
                  "SimConfig must stay designated-initializable");
    static_assert(std::is_aggregate_v<RunRequest>,
                  "RunRequest must stay designated-initializable");
    // Designated-initialize every field: adding a member forces an
    // update here (and a conscious decision about call sites);
    // removing or renaming one breaks the build.
    const SimConfig all{.maxCycles = 1,
                        .telemetry = nullptr,
                        .snapshotEveryCycles = 2,
                        .snapshotDir = "a",
                        .resumeFrom = "b",
                        .resumeSnapshot = nullptr,
                        .captureFinal = nullptr};
    EXPECT_EQ(all.maxCycles, 1u);
    EXPECT_EQ(all.snapshotEveryCycles, 2u);
    struct SimConfigMirror
    {
        Cycle maxCycles;
        TelemetrySession *telemetry;
        Cycle snapshotEveryCycles;
        std::string snapshotDir;
        std::string resumeFrom;
        const Snapshot *resumeSnapshot;
        Snapshot *captureFinal;
    };
    static_assert(sizeof(SimConfig) == sizeof(SimConfigMirror),
                  "SimConfig gained or lost a field: update the "
                  "mirror, the designated-init above, and audit "
                  "call sites");
}

TEST(Checkpoint, DefaultCycleGuardIsAppliedInExactlyOnePlace)
{
    // SimConfig's member initializer is the single source of the
    // default guard; every legacy overload without an explicit cycle
    // count must route through it and agree bit for bit.
    EXPECT_EQ(SimConfig{}.maxCycles, kDefaultMaxCycles);

    const NocConfig cfg = NocConfig::fastTrack(4, 2, 1);
    SyntheticWorkload w = checkpointWorkload();
    w.packetsPerPe = 48;
    const SynthResult a = runSynthetic(cfg, 1, w);
    const SynthResult b = runSynthetic(cfg, 1, w, kDefaultMaxCycles);
    const SynthResult c = runSynthetic(cfg, 1, w, SimConfig{});
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.cycles, c.cycles);
    EXPECT_EQ(hashStats(a.stats), hashStats(b.stats));
    EXPECT_EQ(hashStats(a.stats), hashStats(c.stats));

    LuDagParams params{"guard", 300, 8.0, 1.8, 3, 13};
    const Trace trace = dataflowTrace(sparseLuDag(params), 4);
    const TraceResult t = runTrace(cfg, 1, trace);
    const TraceResult u = runTrace(cfg, 1, trace, kDefaultMaxCycles);
    const TraceResult v = runTrace(cfg, 1, trace, SimConfig{});
    EXPECT_EQ(t.completion, u.completion);
    EXPECT_EQ(t.completion, v.completion);
    EXPECT_EQ(hashStats(t.stats), hashStats(u.stats));
    EXPECT_EQ(hashStats(t.stats), hashStats(v.stats));
}

TEST(Checkpoint, SlicedSyntheticRunIsBitIdenticalHoplite)
{
    expectSlicedSyntheticMatchesWhole(NocConfig::hoplite(8),
                                      "synth_hoplite");
}

TEST(Checkpoint, SlicedSyntheticRunIsBitIdenticalFtFull)
{
    expectSlicedSyntheticMatchesWhole(NocConfig::fastTrack(8, 2, 2),
                                      "synth_ftfull");
}

TEST(Checkpoint, SlicedSyntheticRunIsBitIdenticalFtInject)
{
    expectSlicedSyntheticMatchesWhole(
        NocConfig::fastTrack(8, 2, 1, NocVariant::ftInject),
        "synth_ftinject");
}

TEST(Checkpoint, SlicedTraceRunIsBitIdenticalDataflow)
{
    LuDagParams params{"ckpt_lu", 600, 8.0, 1.8, 3, 13};
    const Trace trace = dataflowTrace(sparseLuDag(params), 4);
    expectSlicedTraceMatchesWhole(NocConfig::hoplite(4), trace,
                                  "trace_hoplite");
    expectSlicedTraceMatchesWhole(NocConfig::fastTrack(4, 2, 1), trace,
                                  "trace_ft");
}

TEST(Checkpoint, SlicedTraceRunIsBitIdenticalSpmv)
{
    MatrixParams params;
    params.rows = 1200;
    params.localFraction = 0.3;
    const Trace trace = spmvTrace(generateMatrix(params), 8);
    expectSlicedTraceMatchesWhole(NocConfig::fastTrack(8, 2, 2), trace,
                                  "trace_spmv");
}

TEST(Checkpoint, TraceRestoreTakesTheReadyListInAnyOrder)
{
    // The decoder accepts any order, so restore must sort: a reversed
    // ready list still finishes exactly like the uninterrupted run,
    // and the next capture is ascending again.
    const NocConfig cfg = NocConfig::fastTrack(4, 2, 1);
    const Trace trace = mpOverlayTrace(parsecCatalog().front(), 4, 12);
    const RunResult whole = runSim({.config = &cfg, .trace = &trace});
    ASSERT_TRUE(whole.trace.completed);

    Snapshot snap;
    const Cycle cut = whole.trace.completion / 2;
    ASSERT_TRUE(runSim({.config = &cfg,
                        .trace = &trace,
                        .sim = {.maxCycles = cut, .captureFinal = &snap}})
                    .finalCaptured);
    const std::vector<std::pair<Cycle, std::uint64_t>> ascending =
        snap.replay.ready;
    ASSERT_GE(ascending.size(), 2u);
    ASSERT_TRUE(std::is_sorted(ascending.begin(), ascending.end()));
    std::reverse(snap.replay.ready.begin(), snap.replay.ready.end());

    Snapshot recaptured;
    const RunResult restored =
        runSim({.config = &cfg,
                .trace = &trace,
                .sim = {.maxCycles = cut,
                        .resumeSnapshot = &snap,
                        .captureFinal = &recaptured}});
    ASSERT_TRUE(restored.resumed);
    EXPECT_EQ(recaptured.replay.ready, ascending);

    const RunResult resumed = runSim(
        {.config = &cfg, .trace = &trace, .sim = {.resumeSnapshot = &snap}});
    ASSERT_TRUE(resumed.resumed);
    EXPECT_TRUE(resumed.trace.completed);
    EXPECT_EQ(resumed.trace.completion, whole.trace.completion);
    EXPECT_EQ(hashStats(resumed.trace.stats), hashStats(whole.trace.stats));
}

TEST(Checkpoint, FindLatestSnapshotPicksHighestCycleByName)
{
    const ScratchDir scratch("ckpt_latest");
    const std::string &dir = scratch.path();
    EXPECT_EQ(findLatestSnapshot(dir), ""); // missing dir: no crash

    std::filesystem::create_directories(dir);
    EXPECT_EQ(findLatestSnapshot(dir), ""); // empty dir
    for (Cycle c : {Cycle{70}, Cycle{900}, Cycle{12}})
        writeAllBytes(dir + "/" + snapshotFileName(c), {1});
    // Decoys that must not match the name pattern.
    writeAllBytes(dir + "/ft-snap-garbage.ftcp", {1});
    writeAllBytes(dir + "/other.txt", {1});
    EXPECT_EQ(findLatestSnapshot(dir),
              dir + "/" + snapshotFileName(900));
}

TEST(Checkpoint, SnapshotFileNameHoldsEveryCycleValue)
{
    // The fixed-width name field must represent every Cycle value
    // (the static_assert in checkpoint.cpp pins the width): the
    // extremes produce equal-length names whose lexicographic order
    // is the numeric order — the invariant findLatestSnapshot's
    // string-max selection and name-length filter both lean on.
    const Cycle max = std::numeric_limits<Cycle>::max();
    const std::string lo = snapshotFileName(0);
    const std::string hi = snapshotFileName(max);
    ASSERT_FALSE(lo.empty());
    ASSERT_FALSE(hi.empty());
    EXPECT_EQ(lo.size(), hi.size());
    EXPECT_LT(lo, hi);
    EXPECT_LT(snapshotFileName(max - 1), hi);

    const ScratchDir scratch("ckpt_extreme_cycle");
    const std::string &dir = scratch.path();
    std::filesystem::create_directories(dir);
    for (Cycle c : {Cycle{0}, Cycle{1}, max - 1, max})
        writeAllBytes(dir + "/" + snapshotFileName(c), {1});
    EXPECT_EQ(findLatestSnapshot(dir), dir + "/" + hi);
}

TEST(Checkpoint, FailedRenameLeavesNoTempFile)
{
    // A directory squats on the snapshot's file name, so renaming the
    // written temp file into place fails: the write reports ioError
    // and leaves no temp file behind.
    const ScratchDir scratch("ckpt_failed_rename");
    const std::string &dir = scratch.path();
    const NocConfig cfg = NocConfig::hoplite(4);
    const SyntheticWorkload w = checkpointWorkload();
    Snapshot snap;
    ASSERT_TRUE(runSim({.config = &cfg,
                        .workload = &w,
                        .sim = {.maxCycles = 16, .captureFinal = &snap}})
                    .finalCaptured);
    std::filesystem::create_directories(dir + "/" +
                                        snapshotFileName(snap.cycle()));

    EXPECT_EQ(writeSnapshotFile(dir, 5, snap),
              sched::KeyedFileStatus::ioError);
    for (const auto &entry : std::filesystem::directory_iterator(dir)) {
        EXPECT_EQ(entry.path().filename().string().find(".tmp."),
                  std::string::npos)
            << entry.path();
    }
}

TEST(Checkpoint, HostileSnapshotFilesAreRejected)
{
    const ScratchDir scratch("ckpt_hostile");
    const std::string &dir = scratch.path();
    const NocConfig cfg = NocConfig::fastTrack(4, 2, 1);
    const SyntheticWorkload w = checkpointWorkload();
    const RunResult seeded =
        runSim({.config = &cfg,
                .workload = &w,
                .sim = {.maxCycles = 64,
                        .snapshotEveryCycles = 32,
                        .snapshotDir = dir}});
    ASSERT_GT(seeded.snapshotsWritten, 0u);

    const std::string path = findLatestSnapshot(dir);
    ASSERT_FALSE(path.empty());
    const std::uint64_t key = checkpointKey(cfg, 1, w);
    Snapshot snap;
    ASSERT_EQ(readSnapshotFile(path, key, snap), sched::KeyedFileStatus::ok);

    const std::vector<std::uint8_t> good = readAllBytes(path);
    ASSERT_GT(good.size(), 32u);
    const std::string mut = dir + "/mutated.ftcp";

    // Truncation at EVERY byte boundary: never ok, never a hang.
    for (std::size_t len = 0; len < good.size(); ++len) {
        writeAllBytes(
            mut, std::vector<std::uint8_t>(good.begin(),
                                           good.begin() +
                                               static_cast<long>(len)));
        EXPECT_NE(readSnapshotFile(mut, key, snap), sched::KeyedFileStatus::ok)
            << "prefix of " << len << " bytes";
    }

    auto mutate = [&](std::size_t at, std::uint8_t flip) {
        std::vector<std::uint8_t> bytes = good;
        bytes[at] ^= flip;
        writeAllBytes(mut, bytes);
    };
    // Container layout: u32 magic, u32 schema, u64 key,
    // u64 payloadBytes, payload, u64 fnv1a(payload).
    mutate(0, 0xff);
    EXPECT_EQ(readSnapshotFile(mut, key, snap),
              sched::KeyedFileStatus::badMagic);
    mutate(4, 0xff);
    EXPECT_EQ(readSnapshotFile(mut, key, snap),
              sched::KeyedFileStatus::badSchema);
    mutate(good.size() - 1, 0xff);
    EXPECT_EQ(readSnapshotFile(mut, key, snap),
              sched::KeyedFileStatus::badChecksum);
    mutate(24, 0x01); // payload byte: self-check hash must catch it
    EXPECT_EQ(readSnapshotFile(mut, key, snap),
              sched::KeyedFileStatus::badChecksum);
    EXPECT_EQ(readSnapshotFile(path, key ^ 1, snap),
              sched::KeyedFileStatus::badKey);

    // Foreign-endian container: byte-swapped magic must be rejected
    // (a big-endian writer that ignored the wire codec).
    {
        std::vector<std::uint8_t> bytes = good;
        std::swap(bytes[0], bytes[3]);
        std::swap(bytes[1], bytes[2]);
        writeAllBytes(mut, bytes);
        EXPECT_EQ(readSnapshotFile(mut, key, snap),
                  sched::KeyedFileStatus::badMagic);
    }
    // Trailing garbage after the declared payload + trailer.
    {
        std::vector<std::uint8_t> bytes = good;
        bytes.push_back(0x5a);
        writeAllBytes(mut, bytes);
        EXPECT_EQ(readSnapshotFile(mut, key, snap),
                  sched::KeyedFileStatus::malformed);
    }
    // Payload tampered AND the self-check recomputed to match: the
    // container validates, the payload itself must not parse.
    {
        std::vector<std::uint8_t> bytes = good;
        bytes[24] = 0x09; // SnapshotKind: neither synthetic nor trace
        Fnv1a check;
        check.addBytes(bytes.data() + 24, bytes.size() - 32);
        for (std::size_t i = 0; i < 8; ++i)
            bytes[bytes.size() - 8 + i] = static_cast<std::uint8_t>(
                check.value() >> (8 * i));
        writeAllBytes(mut, bytes);
        EXPECT_EQ(readSnapshotFile(mut, key, snap),
                  sched::KeyedFileStatus::malformed);
    }
    EXPECT_EQ(readSnapshotFile(dir + "/nonexistent.ftcp", key, snap),
              sched::KeyedFileStatus::ioError);
    // The pristine file still loads after all of the above.
    EXPECT_EQ(readSnapshotFile(path, key, snap), sched::KeyedFileStatus::ok);
}

/** Peak resident set of this process so far, in bytes. */
std::uint64_t
peakRssBytes()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<std::uint64_t>(usage.ru_maxrss) * 1024;
}

TEST(Checkpoint, ForgedSlabSizeIsRefusedBeforeAllocating)
{
    // 29 bytes that name 65,536 nodes and 1,024 slab frames: 64 MiB of
    // occupancy masks the payload cannot hold. The decoder must refuse
    // it without allocating them first.
    net::WireWriter w;
    w.u8(static_cast<std::uint8_t>(SnapshotKind::synthetic));
    w.u64(0); // runStart
    w.u64(0); // cycle
    w.u32(65'536);
    w.u32(1'024);
    w.u32(0); // offers
    const std::vector<std::uint8_t> forged = w.take();

    const std::uint64_t before = peakRssBytes();
    Snapshot snap;
    EXPECT_FALSE(decodeSnapshot(forged, snap));
    EXPECT_LT(peakRssBytes() - before, std::uint64_t{16} << 20);
}

TEST(Checkpoint, CorruptResumeFallsBackToFreshRunBitIdentically)
{
    const ScratchDir scratch("ckpt_fallback");
    const std::string &dir = scratch.path();
    const NocConfig cfg = NocConfig::fastTrack(4, 2, 1);
    SyntheticWorkload w = checkpointWorkload();
    w.packetsPerPe = 48;

    const RunResult whole = runSim({.config = &cfg, .workload = &w});
    ASSERT_TRUE(whole.synth.completed);

    const RunResult seeded =
        runSim({.config = &cfg,
                .workload = &w,
                .sim = {.maxCycles = 40,
                        .snapshotEveryCycles = 20,
                        .snapshotDir = dir}});
    ASSERT_GT(seeded.snapshotsWritten, 0u);
    const std::string path = findLatestSnapshot(dir);
    ASSERT_FALSE(path.empty());
    std::vector<std::uint8_t> bytes = readAllBytes(path);
    bytes[bytes.size() / 2] ^= 0xff;
    writeAllBytes(path, bytes);

    const RunResult fallback =
        runSim({.config = &cfg,
                .workload = &w,
                .sim = {.resumeFrom = dir}});
    EXPECT_FALSE(fallback.resumed);
    EXPECT_TRUE(fallback.synth.completed);
    EXPECT_EQ(fallback.synth.cycles, whole.synth.cycles);
    EXPECT_EQ(hashStats(fallback.synth.stats),
              hashStats(whole.synth.stats));
}

TEST(Checkpoint, TrimmedShardStatsMergeBackToTheWholeRun)
{
    // Temporal-shard handoff: slice 1 keeps its own measurements,
    // trimState() strips them from the snapshot, slice 2 resumes the
    // traffic but measures only its slice — merging the two stats
    // blocks must reproduce the uninterrupted run bit for bit.
    const ScratchDir scratch("ckpt_trim");
    const std::string &dir = scratch.path();
    const NocConfig cfg = NocConfig::fastTrack(8, 2, 2);
    const SyntheticWorkload w = checkpointWorkload();

    const RunResult whole = runSim({.config = &cfg, .workload = &w});
    ASSERT_TRUE(whole.synth.completed);
    const Cycle cut = whole.synth.cycles / 2;
    ASSERT_GT(cut, 0u);

    const RunResult first =
        runSim({.config = &cfg,
                .workload = &w,
                .sim = {.maxCycles = cut,
                        .snapshotEveryCycles = cut,
                        .snapshotDir = dir}});
    ASSERT_EQ(first.snapshotsWritten, 1u);
    ASSERT_FALSE(first.synth.completed);

    const std::uint64_t key = checkpointKey(cfg, 1, w);
    Snapshot snap;
    ASSERT_EQ(readSnapshotFile(findLatestSnapshot(dir), key, snap),
              sched::KeyedFileStatus::ok);
    EXPECT_EQ(hashStats(snap.engine.stats),
              hashStats(first.synth.stats));

    snap.trimState();
    EXPECT_TRUE(snap.engine.trimmed);
    const ScratchDir handoff("ckpt_trim_handoff");
    const std::string &trimmed_dir = handoff.path();
    std::string trimmed_path;
    ASSERT_EQ(writeSnapshotFile(trimmed_dir, key, snap, &trimmed_path),
              sched::KeyedFileStatus::ok);

    const RunResult second =
        runSim({.config = &cfg,
                .workload = &w,
                .sim = {.resumeFrom = trimmed_path}});
    ASSERT_TRUE(second.resumed);
    EXPECT_EQ(second.resumedAtCycle, cut);
    ASSERT_TRUE(second.synth.completed);

    NocStats merged = first.synth.stats;
    merged.merge(second.synth.stats);
    EXPECT_EQ(hashStats(merged), hashStats(whole.synth.stats));
    EXPECT_EQ(second.synth.cycles, whole.synth.cycles);
}

TEST(Checkpoint, SweepCacheIsBypassedWhileCheckpointing)
{
    // A cached replay writes no snapshots, so checkpoint knobs force
    // a real run (counted as a bypass) instead of a silent lie.
    const ScratchDir scratch("ckpt_cache_bypass");
    const std::string &dir = scratch.path();
    const NocConfig cfg = NocConfig::fastTrack(4, 2, 1);
    SyntheticWorkload w = checkpointWorkload();
    w.packetsPerPe = 48;
    w.seed = 77;

    const SynthResult warm = cachedRunSynthetic(cfg, 1, w);
    const auto bypasses_before = sweepCache().stats().bypasses;
    const RunResult run =
        runSim({.config = &cfg,
                .workload = &w,
                .sim = {.snapshotEveryCycles = 16, .snapshotDir = dir},
                .useCache = true});
    EXPECT_FALSE(run.fromCache);
    EXPECT_GT(run.snapshotsWritten, 0u);
    EXPECT_EQ(sweepCache().stats().bypasses, bypasses_before + 1);
    EXPECT_EQ(hashStats(run.synth.stats), hashStats(warm.stats));
}

} // namespace
} // namespace fasttrack
