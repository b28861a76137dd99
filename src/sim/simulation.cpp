#include "sim/simulation.hpp"

#include <filesystem>
#include <optional>
#include <type_traits>

#include "check/invariants.hpp"
#include "common/logging.hpp"
#include "noc/engine_core.hpp"
#include "noc/engine_state.hpp"
#include "sim/checkpoint.hpp"
#include "sim/sweep_cache.hpp"
#include "sim/telemetry_session.hpp"
#include "telemetry/sink.hpp"
#include "traffic/trace_replay.hpp"

namespace fasttrack {

namespace {

#if FT_CHECK_ENABLED
/**
 * Baselines for the telemetry/checker cross-validation: both the
 * sink's event counters and the checker's conservation counts are
 * cumulative over the device/thread lifetime, so the run compares
 * deltas. Only single-channel devices expose one checker whose counts
 * correspond 1:1 to this thread's telemetry events. Armed after any
 * snapshot restore, so a resumed run baselines the restored counts.
 */
struct TelemetryCrossCheck
{
    check::InvariantChecker *checker = nullptr;
    std::uint64_t telemInjects = 0;
    std::uint64_t telemEjects = 0;
    std::uint64_t checkInjected = 0;
    std::uint64_t checkDelivered = 0;

    void arm(NocDevice &noc, TelemetrySession *session)
    {
        if (!session || noc.channelCount() != 1)
            return;
        auto *core = dynamic_cast<EngineCore *>(&noc);
        if (!core || !core->checker())
            return;
        checker = core->checker();
        const telemetry::KindCounts &c = session->sink().local().counts();
        telemInjects = c.of(telemetry::EventKind::inject);
        telemEjects = c.of(telemetry::EventKind::eject);
        checkInjected = checker->injectedCount();
        checkDelivered = checker->deliveredCount();
    }

    void verify(TelemetrySession *session, Cycle now) const
    {
        if (!checker)
            return;
        const telemetry::KindCounts &c = session->sink().local().counts();
        checker->verifyTelemetryCounts(
            checkInjected +
                (c.of(telemetry::EventKind::inject) - telemInjects),
            checkDelivered +
                (c.of(telemetry::EventKind::eject) - telemEjects),
            now);
    }
};
#endif

/** True when @p sim writes, resumes or captures snapshots. */
bool
checkpointing(const SimConfig &sim)
{
    return sim.snapshotEveryCycles != 0 || !sim.resumeFrom.empty() ||
           sim.resumeSnapshot != nullptr || sim.captureFinal != nullptr;
}

/** Validate the snapshot knobs and probe device support once. A
 *  request that asks for checkpointing on a device that cannot
 *  capture state is a hard error, not a silent degradation. */
void
checkSnapshotKnobs(const NocDevice &noc, const SimConfig &sim)
{
    if (sim.snapshotEveryCycles != 0 && sim.snapshotDir.empty())
        FT_FATAL("snapshotEveryCycles requires snapshotDir");
    if (!checkpointing(sim))
        return;
    EngineState probe;
    if (!noc.captureState(probe))
        FT_FATAL("checkpointing requires a device with engine-"
                 "state capture (single-channel Network); ",
                 noc.config().describe(), " x", noc.channelCount(),
                 " does not support it");
}

/**
 * Resolve the resume source into @p out; false => fresh run (warned,
 * never fatal). The in-memory snapshot wins over resumeFrom, a file or
 * a directory whose latest snapshot is taken. The in-memory path only
 * checks the workload kind here; content authenticity (the checkpoint
 * key) is the supplier's job, since a wire snapshot never went
 * through the keyed file container.
 */
bool
resolveResumeSnapshot(const SimConfig &sim, std::uint64_t key,
                      SnapshotKind kind, Snapshot &out)
{
    if (sim.resumeSnapshot) {
        if (sim.resumeSnapshot->kind != kind) {
            FT_WARN("resume: in-memory snapshot is for a different "
                    "workload kind, starting fresh");
            return false;
        }
        out = *sim.resumeSnapshot;
        return true;
    }
    if (sim.resumeFrom.empty())
        return false;
    std::string path = sim.resumeFrom;
    std::error_code ec;
    if (!std::filesystem::exists(path, ec)) {
        FT_WARN("resume: nothing at '", path, "', starting fresh");
        return false;
    }
    if (std::filesystem::is_directory(path, ec)) {
        path = findLatestSnapshot(path);
        if (path.empty()) {
            FT_WARN("resume: no snapshots in '", sim.resumeFrom,
                    "', starting fresh");
            return false;
        }
    }
    const sched::KeyedFileStatus status = readSnapshotFile(path, key, out);
    if (status != sched::KeyedFileStatus::ok) {
        FT_WARN("resume: rejected snapshot '", path, "' (",
                toString(status), "), starting fresh");
        return false;
    }
    if (out.kind != kind) {
        FT_WARN("resume: snapshot '", path,
                "' is for a different workload kind, starting fresh");
        return false;
    }
    return true;
}

/** What the driver loop needs of a traffic source beyond tick(),
 *  captureState() and restoreState(): its snapshot kind and slot,
 *  when it is done, its queued backlog, and how its result reads. */
template <typename Source>
struct SourceTraits;

template <>
struct SourceTraits<SyntheticInjector>
{
    static constexpr SnapshotKind kind = SnapshotKind::synthetic;
    static constexpr InjectorState Snapshot::*state = &Snapshot::injector;

    static bool done(const SyntheticInjector &s) { return s.done(); }
    static std::uint64_t backlog(const SyntheticInjector &s)
    {
        return s.queued();
    }
    static const NocStats &report(const SyntheticInjector &s,
                                  const SyntheticWorkload &workload,
                                  const NocDevice &noc, Cycle start,
                                  RunResult &result)
    {
        result.synth.stats = noc.statsSnapshot();
        result.synth.cycles = noc.now() - start;
        result.synth.pes = noc.config().pes();
        result.synth.offeredRate = workload.injectionRate;
        result.synth.completed = s.done();
        return result.synth.stats;
    }
};

template <>
struct SourceTraits<TraceReplayer>
{
    static constexpr SnapshotKind kind = SnapshotKind::trace;
    static constexpr TraceReplayState Snapshot::*state = &Snapshot::replay;

    static bool done(const TraceReplayer &s) { return s.finished(); }
    /** Replay holds messages back on dependencies, not in queues. */
    static std::uint64_t backlog(const TraceReplayer &) { return 0; }
    static const NocStats &report(const TraceReplayer &s, const Trace &,
                                  const NocDevice &noc, Cycle,
                                  RunResult &result)
    {
        result.trace.stats = noc.statsSnapshot();
        result.trace.completion = s.lastDelivery();
        result.trace.pes = noc.config().pes();
        result.trace.completed = s.finished();
        return result.trace.stats;
    }
};

/** Capture the run at this cycle boundary into @p snap: the one
 *  capture behind periodic snapshots and the final-state handoff.
 *  False (warned as @p what) when the device or source cannot. */
template <typename Source>
bool
captureRun(const NocDevice &noc, const Source &source, Cycle run_start,
           const char *what, Snapshot &snap)
{
    snap = Snapshot{};
    snap.kind = SourceTraits<Source>::kind;
    snap.runStart = run_start;
    if (noc.captureState(snap.engine) &&
        source.captureState(snap.*SourceTraits<Source>::state))
        return true;
    FT_WARN(what, " capture failed at cycle ", noc.now());
    return false;
}

/** Restore @p noc, then @p source, from @p snap. When the source
 *  refuses its half, the device goes back to the state it had, so the
 *  run starts fresh rather than half-restored. */
template <typename Source>
bool
restoreRun(NocDevice &noc, Source &source, const Snapshot &snap)
{
    EngineState before;
    if (!noc.captureState(before) || !noc.restoreState(snap.engine))
        return false;
    if (source.restoreState(snap.*SourceTraits<Source>::state))
        return true;
    const bool undone = noc.restoreState(before);
    FT_ASSERT(undone, "could not undo a refused resume");
    return false;
}

/** The one driver loop: drive @p input's traffic source on @p noc
 *  under @p sim (telemetry epochs, periodic snapshots, resume and
 *  final-state capture) and fill @p result. */
template <typename Source, typename Input>
void
runCore(NocDevice &noc, const Input &input, const SimConfig &sim,
        RunResult &result)
{
    using Traits = SourceTraits<Source>;
    TelemetrySession *session = sim.telemetry;
    const bool sampling = session && session->claimSampler();
    if (session)
        session->observe(noc);

    Source source(noc, input);
    Cycle start = noc.now();
    bool trimmed_resume = false;

    std::uint64_t key = 0;
    if (sim.snapshotEveryCycles != 0 || !sim.resumeFrom.empty())
        key = checkpointKey(noc.config(), noc.channelCount(), input);
    checkSnapshotKnobs(noc, sim);
    if (Snapshot resume;
        resolveResumeSnapshot(sim, key, Traits::kind, resume) &&
        restoreRun(noc, source, resume)) {
        start = resume.runStart;
        result.resumed = true;
        result.resumedAtCycle = resume.cycle();
        trimmed_resume = resume.engine.trimmed;
    }

#if FT_CHECK_ENABLED
    TelemetryCrossCheck cross;
    cross.arm(noc, session);
#endif

    const Cycle epoch = sampling ? session->config().epoch : 0;
    Cycle next_sample = noc.now() + epoch;
    const Cycle every = sim.snapshotEveryCycles;
    while (!Traits::done(source) && noc.now() - start < sim.maxCycles) {
        source.tick();
        noc.step();
        // A failed capture or write degrades to a warning: the run is
        // still correct, just not resumable from this point.
        if (every != 0 && (noc.now() - start) % every == 0) {
            Snapshot snap;
            if (captureRun(noc, source, start, "snapshot", snap)) {
                const sched::KeyedFileStatus status =
                    writeSnapshotFile(sim.snapshotDir, key, snap);
                if (status == sched::KeyedFileStatus::ok)
                    ++result.snapshotsWritten;
                else
                    FT_WARN("snapshot write failed at cycle ",
                            noc.now(), " (", toString(status), ")");
            }
        }
        if (epoch && noc.now() >= next_sample) {
            session->sampleEpoch(noc, Traits::backlog(source));
            next_sample += epoch;
        }
    }
    if (sampling) {
        session->sampleEpoch(noc, Traits::backlog(source));
        session->releaseSampler();
    }
    // A non-sliced replay that hits the guard is a workload bug, as
    // it always was; a sliced run legitimately stops mid-trace and
    // reports completed=false instead.
    if constexpr (std::is_same_v<Source, TraceReplayer>) {
        if (!checkpointing(sim))
            FT_ASSERT(source.finished(),
                      "trace replay did not finish within ",
                      sim.maxCycles, " cycles (",
                      source.deliveredMessages(), "/",
                      input.messages.size(), " delivered)");
    }
    // A failed final capture leaves finalCaptured false; the slice
    // that asked for it treats that as its own failure.
    if (sim.captureFinal)
        result.finalCaptured = captureRun(noc, source, start,
                                          "final-state",
                                          *sim.captureFinal);

    const NocStats &stats =
        Traits::report(source, input, noc, start, result);
#if FT_CHECK_ENABLED
    // A trimmed resume measures only its slice: delivered includes
    // packets the snapshot inherited in flight, so slice-local
    // injected != delivered is expected, not a conservation bug (the
    // checker's own ledger still verifies via verifyQuiescent).
    if (!trimmed_resume)
        check::verifyDrainedStats(stats.injected, stats.delivered,
                                  noc.quiescent());
    cross.verify(session, noc.now());
#else
    (void)stats;
    (void)trimmed_resume;
#endif
}

} // namespace

double
SynthResult::sustainedRate() const
{
    return stats.sustainedRate(pes, cycles);
}

double
SynthResult::avgLatency() const
{
    return stats.totalLatency.mean();
}

std::uint64_t
SynthResult::worstLatency() const
{
    return stats.totalLatency.max();
}

RunResult
runSim(const RunRequest &request)
{
    if ((request.workload != nullptr) == (request.trace != nullptr))
        FT_FATAL("RunRequest needs exactly one of workload / trace");
    if (!request.device && !request.config)
        FT_FATAL("RunRequest needs a device or a config");
    if (request.useCache &&
        (request.trace || request.device || !request.config))
        FT_FATAL("RunRequest.useCache applies to synthetic, "
                 "config-built runs only");

    RunResult result;
    result.isTrace = request.trace != nullptr;

    // Sweep-cache fast path: identical semantics to the historical
    // cachedRunSynthetic — bypassed (and counted as such) while
    // telemetry or snapshotting would make a replayed result a lie.
    std::optional<std::uint64_t> store_key;
    if (request.useCache) {
        const SimConfig &sim = request.sim;
        if (telemetry::installed() != nullptr || sim.telemetry != nullptr ||
            checkpointing(sim)) {
            sweepCache().noteBypass();
        } else {
            store_key = sweepKey(*request.config, request.channels,
                                 *request.workload, sim.maxCycles);
            if (probeSweepCache(*store_key, result.synth)) {
                result.fromCache = true;
                return result;
            }
        }
    }

    std::unique_ptr<NocDevice> owned;
    NocDevice *noc = request.device;
    if (!noc) {
        owned = makeNoc(*request.config, request.channels);
        noc = owned.get();
    }
    if (request.workload)
        runCore<SyntheticInjector>(*noc, *request.workload, request.sim,
                                   result);
    else
        runCore<TraceReplayer>(*noc, *request.trace, request.sim, result);
    if (store_key)
        sweepCache().store(*store_key, encodeSynthResult(result.synth));
    return result;
}

} // namespace fasttrack
