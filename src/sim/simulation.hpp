/**
 * @file
 * Top-level simulation drivers: run a synthetic workload or a trace on
 * a configured NoC and collect the paper's metrics.
 *
 * The single entry point is runSim(RunRequest): one request struct
 * carries the device (or the config to build one from), the workload
 * (synthetic or trace), the driver knobs (SimConfig, including the
 * checkpoint/resume controls) and the cache opt-in. The historical
 * runSynthetic / runTrace / cachedRunSynthetic signatures survive as
 * one-line shims over it — new call sites should construct a
 * RunRequest with designated initializers instead of growing the
 * overload set further.
 */

#ifndef FT_SIM_SIMULATION_HPP
#define FT_SIM_SIMULATION_HPP

#include <concepts>
#include <memory>
#include <string>
#include <type_traits>

#include "noc/noc_device.hpp"
#include "traffic/injector.hpp"
#include "traffic/trace.hpp"

namespace fasttrack {

struct Snapshot;

/** Result of one synthetic-workload run. */
struct SynthResult
{
    NocStats stats;
    Cycle cycles = 0;
    std::uint32_t pes = 0;
    /** Configured generation rate (packets/cycle/PE). */
    double offeredRate = 0.0;
    /** False when the run hit the cycle guard before draining (e.g.
     *  the livelock ablation). */
    bool completed = false;

    /** Delivered packets per cycle per PE (Fig 11 metric). */
    double sustainedRate() const;
    /** Mean source-to-delivery latency in cycles (Fig 12 metric). */
    double avgLatency() const;
    /** Worst-case packet latency (Fig 16 tail). */
    std::uint64_t worstLatency() const;
};

/** Hand every SynthResult field to @p f, in declaration order (see
 *  visitFields(NocConfig) in noc/config.hpp). */
template <typename Result, typename F>
    requires std::same_as<std::remove_const_t<Result>, SynthResult>
decltype(auto)
visitFields(Result &result, F &&f)
{
    auto &[stats, cycles, pes, offeredRate, completed] = result;
    return f(stats, cycles, pes, offeredRate, completed);
}

/** Default cycle guard for synthetic runs. SimConfig's maxCycles
 *  member initializer is the single place this default is applied;
 *  every legacy overload without an explicit cycle count routes
 *  through SimConfig{} (tests/test_checkpoint.cpp pins this). */
inline constexpr Cycle kDefaultMaxCycles = 20'000'000;

/** One synthetic run point: the four inputs its sweep-cache key covers
 *  (sim/sweep_cache.hpp). The executor runPoints takes a list of them;
 *  a SweepRequest carries one over the wire. */
struct RunPoint
{
    NocConfig config;
    std::uint32_t channels = 1;
    SyntheticWorkload workload;
    /** Cycle guard (SimConfig::maxCycles). */
    Cycle maxCycles = kDefaultMaxCycles;
};

class TelemetrySession;

/**
 * Driver knobs beyond the workload itself.
 *
 * Initialize with designated initializers (SimConfig{.maxCycles = N})
 * — positional aggregate initialization is pinned off by the
 * field-set test in tests/test_checkpoint.cpp precisely because
 * adding fields (as the snapshot knobs did) silently reorders
 * positional meaning.
 */
struct SimConfig
{
    /** Cycle guard: give up (completed=false) after this many. The
     *  guard is run-relative: a resumed slice counts cycles from the
     *  original run's start, not from the resume point, so slicing
     *  cannot change where the guard trips. */
    Cycle maxCycles = kDefaultMaxCycles;
    /**
     * Attach an observability session (sim/telemetry_session.hpp):
     * the driver samples its metrics registry every
     * telemetry->config().epoch cycles and, in FT_CHECK builds of
     * single-channel devices, cross-validates the sink's event
     * counters against the invariant checker's conservation counts.
     * nullptr = no telemetry (the hot path compiles telemetry-free).
     */
    TelemetrySession *telemetry = nullptr;
    /**
     * Write a snapshot (sim/checkpoint.hpp) every N run-relative
     * cycles (0 = never). Requires snapshotDir. Snapshotting lives
     * entirely in the driver loop; the device's step() hot path is
     * untouched.
     */
    Cycle snapshotEveryCycles = 0;
    /** Directory snapshots are written into (created on demand). */
    std::string snapshotDir;
    /**
     * Resume source: a snapshot file, or a directory (the latest
     * snapshot inside wins). Empty = fresh run. A missing, corrupt
     * or mismatched snapshot logs a warning and falls back to a
     * fresh run — resumption is an optimization, never a correctness
     * dependency.
     */
    std::string resumeFrom;
    /**
     * In-memory resume source (temporal sharding: a snapshot that
     * arrived over the wire rather than from disk). Takes precedence
     * over resumeFrom. The same fall-back-to-fresh semantics apply
     * on a key/kind mismatch; callers that need the resume to have
     * happened (the ftd slice handler) check RunResult::resumed.
     */
    const Snapshot *resumeSnapshot = nullptr;
    /**
     * When set, capture the end-of-run state into *captureFinal so a
     * sharded driver can hand it to the next slice without touching
     * disk. Only single-channel devices support state capture; a
     * device that cannot capture is a fatal error, matching the
     * snapshotEveryCycles contract. RunResult::finalCaptured reports
     * success.
     */
    Snapshot *captureFinal = nullptr;
};

/** Result of one trace-replay run. */
struct TraceResult
{
    NocStats stats;
    /** Cycle the last message was delivered (workload makespan). */
    Cycle completion = 0;
    std::uint32_t pes = 0;
    /** False when a sliced run hit its cycle guard before the trace
     *  drained (non-sliced runs abort instead, as they always did). */
    bool completed = true;
};

/** Hand every TraceResult field to @p f, in declaration order (see
 *  visitFields(NocConfig) in noc/config.hpp). */
template <typename Result, typename F>
    requires std::same_as<std::remove_const_t<Result>, TraceResult>
decltype(auto)
visitFields(Result &result, F &&f)
{
    auto &[stats, completion, pes, completed] = result;
    return f(stats, completion, pes, completed);
}

/**
 * One simulation request (see file comment). Exactly one of
 * {workload, trace} must be set; device and config are alternatives
 * (an existing device wins; otherwise one is built from config and
 * channels). Misuse is a fatal error, not a silent default.
 */
struct RunRequest
{
    /** Existing device to drive (takes precedence over config). */
    NocDevice *device = nullptr;
    /** Configuration to build a fresh device from. */
    const NocConfig *config = nullptr;
    std::uint32_t channels = 1;
    /** Synthetic workload to run (exclusive with trace). */
    const SyntheticWorkload *workload = nullptr;
    /** Trace to replay (exclusive with workload). */
    const Trace *trace = nullptr;
    SimConfig sim;
    /** Consult the sweep cache (synthetic, config-built runs only;
     *  bypassed while telemetry or snapshotting is active). */
    bool useCache = false;
};

/** What runSim hands back; synth or trace is populated per request. */
struct RunResult
{
    SynthResult synth;
    TraceResult trace;
    /** Which of the two results above is the live one. */
    bool isTrace = false;
    /** A snapshot was successfully restored. */
    bool resumed = false;
    /** Cycle the restored snapshot was taken at (when resumed). */
    Cycle resumedAtCycle = 0;
    /** Snapshots written by this run. */
    std::uint64_t snapshotsWritten = 0;
    /** Result came from the sweep cache (no simulation ran). */
    bool fromCache = false;
    /** sim.captureFinal was set and the end state was captured. */
    bool finalCaptured = false;
};

/** The simulation entry point (see RunRequest). */
RunResult runSim(const RunRequest &request);

// --- legacy shims ------------------------------------------------------
// Thin wrappers kept for existing call sites; prefer RunRequest with
// designated initializers and runSim for anything new.

/** Shim over runSim — see RunRequest. Runs @p workload on an
 *  existing device until it drains (default cycle guard). */
inline SynthResult
runSynthetic(NocDevice &noc, const SyntheticWorkload &workload)
{
    return runSim({.device = &noc, .workload = &workload}).synth;
}

/** Shim over runSim — see RunRequest. */
inline SynthResult
runSynthetic(NocDevice &noc, const SyntheticWorkload &workload,
             Cycle max_cycles)
{
    return runSim({.device = &noc,
                   .workload = &workload,
                   .sim = {.maxCycles = max_cycles}})
        .synth;
}

/** Shim over runSim — see RunRequest. */
inline SynthResult
runSynthetic(NocDevice &noc, const SyntheticWorkload &workload,
             const SimConfig &sim)
{
    return runSim({.device = &noc, .workload = &workload, .sim = sim})
        .synth;
}

/** Shim over runSim — see RunRequest. Builds the device itself. */
inline SynthResult
runSynthetic(const NocConfig &config, std::uint32_t channels,
             const SyntheticWorkload &workload)
{
    return runSim({.config = &config,
                   .channels = channels,
                   .workload = &workload})
        .synth;
}

/** Shim over runSim — see RunRequest. */
inline SynthResult
runSynthetic(const NocConfig &config, std::uint32_t channels,
             const SyntheticWorkload &workload, Cycle max_cycles)
{
    return runSim({.config = &config,
                   .channels = channels,
                   .workload = &workload,
                   .sim = {.maxCycles = max_cycles}})
        .synth;
}

/** Shim over runSim — see RunRequest. */
inline SynthResult
runSynthetic(const NocConfig &config, std::uint32_t channels,
             const SyntheticWorkload &workload, const SimConfig &sim)
{
    return runSim({.config = &config,
                   .channels = channels,
                   .workload = &workload,
                   .sim = sim})
        .synth;
}

/** Shim over runSim — see RunRequest. Replays @p trace on a fresh
 *  device built from @p config (default cycle guard). */
inline TraceResult
runTrace(const NocConfig &config, std::uint32_t channels,
         const Trace &trace)
{
    return runSim({.config = &config,
                   .channels = channels,
                   .trace = &trace})
        .trace;
}

/** Shim over runSim — see RunRequest. */
inline TraceResult
runTrace(const NocConfig &config, std::uint32_t channels,
         const Trace &trace, Cycle max_cycles)
{
    return runSim({.config = &config,
                   .channels = channels,
                   .trace = &trace,
                   .sim = {.maxCycles = max_cycles}})
        .trace;
}

/** Shim over runSim — see RunRequest. */
inline TraceResult
runTrace(const NocConfig &config, std::uint32_t channels,
         const Trace &trace, const SimConfig &sim)
{
    return runSim({.config = &config,
                   .channels = channels,
                   .trace = &trace,
                   .sim = sim})
        .trace;
}

} // namespace fasttrack

#endif // FT_SIM_SIMULATION_HPP
