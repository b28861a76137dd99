/**
 * @file
 * Content-addressed caching for synthetic-sweep results.
 *
 * Every paper figure re-simulates (config, workload, seed) points
 * that other figures — or a previous invocation of the same bench —
 * already computed. Because runSynthetic is bit-deterministic in its
 * inputs, a result can be keyed by a hash of those inputs and
 * replayed instead of re-simulated.
 *
 * Key schema (FNV-1a over the words listed, in order; bump
 * kSweepCacheSchema whenever this list, the field meanings, or the
 * encoded payload change):
 *   kSweepCacheSchema, NocConfig, channels, SyntheticWorkload,
 *   maxCycles
 * Each struct contributes its fields in the order its visitFields
 * lists them — the one normative field order; sim/run_codec.hpp
 * spells it out and maps each field to its key word.
 *
 * The payload is the full SynthResult (all NocStats counters and the
 * four latency/hop histograms), written by net/codec.hpp in the order
 * of visitFields(SynthResult), so a cache hit reproduces every figure
 * metric bit for bit.
 *
 * Telemetry interaction: when a telemetry sink is installed, a cache
 * hit would silently skip the event/counter emission of the real
 * run, so runSim bypasses the cache (recorded in the
 * <sweep_cache.bypasses> counter) rather than corrupt traces.
 */

#ifndef FT_SIM_SWEEP_CACHE_HPP
#define FT_SIM_SWEEP_CACHE_HPP

#include <cstdint>
#include <optional>
#include <vector>

#include "sched/blob_cache.hpp"
#include "sim/simulation.hpp"

namespace fasttrack {

/** Payload/key schema version (see file comment). v2: the key
 *  derivation and payload encoding became explicitly little-endian
 *  (net/wire.hpp), so keys and blobs are identical across hosts —
 *  the property the distributed fabric's cross-node cache sharing
 *  relies on (docs/distributed.md). On little-endian hosts the bytes
 *  are unchanged, but the portability contract is new, hence the
 *  bump: a v1 blob written by a big-endian build must not validate. */
inline constexpr std::uint32_t kSweepCacheSchema = 2;

/** Content key of one synthetic run (see key schema above). */
std::uint64_t sweepKey(const NocConfig &config, std::uint32_t channels,
                       const SyntheticWorkload &workload,
                       Cycle max_cycles = kDefaultMaxCycles);
std::uint64_t sweepKey(const RunPoint &point);

/** Serialize @p result as a sweep-cache payload. */
std::vector<std::uint8_t> encodeSynthResult(const SynthResult &result);

/** Rebuild a SynthResult from @p payload; false if the payload does
 *  not parse exactly (treat as a miss and recompute). */
bool decodeSynthResult(const std::vector<std::uint8_t> &payload,
                       SynthResult &out);

/** The process-wide sweep-result cache. Memory-backed by default;
 *  attach a disk store with sweepCache().setDir(dir) (the bench
 *  harnesses wire --result-cache DIR here). */
sched::BlobCache &sweepCache();

/**
 * The one sweep-cache probe: look @p key up in sweepCache() and decode
 * the entry into @p out. An entry that passes BlobCache validation but
 * does not decode (an encoder bug, or a schema drift that forgot its
 * version bump) is a miss, so the caller recomputes; @p out is then
 * left untouched. On a hit, returns the entry's payload bytes.
 */
std::optional<std::vector<std::uint8_t>>
probeSweepCache(std::uint64_t key, SynthResult &out);

/**
 * runSynthetic through the sweep cache: return the stored result on
 * a key hit, otherwise simulate and store. Falls back to a plain run
 * (counted as a bypass) while a telemetry sink is installed. A cached
 * result is bit-identical to a plain runSim of the same inputs
 * (tests/test_sched.cpp pins this). Shim over runSim
 * (RunRequest.useCache) — the cache lookup/store itself lives in
 * runSim; it takes the default cycle guard from
 * SimConfig{} like every other entry point.
 */
inline SynthResult
cachedRunSynthetic(const NocConfig &config, std::uint32_t channels,
                   const SyntheticWorkload &workload)
{
    return runSim({.config = &config,
                   .channels = channels,
                   .workload = &workload,
                   .useCache = true})
        .synth;
}

/**
 * The one executor over a list of run points; results in input order.
 * A point whose sweepKey repeats an earlier point's runs once, and
 * both get its result. The distinct points run as one batch: one work
 * item each on the work-stealing pool, through the sweep cache
 * (computePoints), or, with remote endpoints configured and no
 * telemetry sink installed (remote workers cannot stream trace
 * events), as one remote fan-out (remoteRunPoints). Every result is
 * the bit-deterministic function of its point, so where a point ran
 * never shows in it.
 */
std::vector<SynthResult> runPoints(const std::vector<RunPoint> &points);

/**
 * Simulate @p points as one pool batch, results in input order: the
 * executor's local path, and the miss path of the callers that probe
 * the sweep cache themselves first (the remote client and ftd). With
 * @p probed_keys (one per point, each already looked up and missed),
 * every result is stored under its key without a second probe, so a
 * computed point counts one miss. Without, each point runs through
 * the cache (runSim's useCache).
 */
std::vector<SynthResult>
computePoints(const std::vector<RunPoint> &points,
              const std::vector<std::uint64_t> *probed_keys = nullptr);

} // namespace fasttrack

#endif // FT_SIM_SWEEP_CACHE_HPP
