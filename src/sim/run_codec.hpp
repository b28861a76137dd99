/**
 * @file
 * Run inputs as content keys and wire payloads: the one module that
 * maps NocConfig, SyntheticWorkload and TraceMessage fields to FNV key
 * words and wire words, checks decoded inputs, and holds the ftd
 * message-payload codecs (docs/distributed.md).
 *
 * Each struct lists its fields once, in the visitFields beside its
 * definition, and that order is the byte order:
 *   NocConfig{n, d, r, variant, allowExpressTurn, allowUpgrade,
 *             turnPriority, shortLinkStages, expressLinkStages}
 *   SyntheticWorkload{pattern, injectionRate, packetsPerPe,
 *                     localRadius, seed}
 *   TraceMessage{src, dst, earliest, delayAfterDeps}
 * A trace message is keyed and written as its id, then
 * visitFields(TraceMessage), then its deps (Trace::forEachMessage):
 * the {id, src, dst, earliest, delayAfterDeps, deps} record it has
 * always been. A field maps by its type alone. Key word: integers,
 * enums and bools widened to u64, doubles bit_cast, a vector or span
 * as its size then its items. Wire words: net/codec.hpp, the codec
 * every stored or sent payload walks. Changing either moves keys and
 * payload bytes (tests/test_run_codec.cpp pins them): bump
 * kSweepCacheSchema, kCheckpointSchema and net::kWireVersion.
 */

#ifndef FT_SIM_RUN_CODEC_HPP
#define FT_SIM_RUN_CODEC_HPP

#include <bit>
#include <cstdint>
#include <map>
#include <ranges>
#include <string>
#include <type_traits>
#include <vector>

#include "common/fnv1a.hpp"
#include "noc/config.hpp"
#include "sim/checkpoint.hpp"
#include "sim/simulation.hpp"
#include "traffic/injector.hpp"
#include "traffic/trace.hpp"

namespace fasttrack {

/** Feed @p in to @p h as key words (see the file comment). */
template <typename T>
void
addKeyWords(Fnv1a &h, const T &in)
{
    if constexpr (std::is_same_v<T, double>) {
        h.add(std::bit_cast<std::uint64_t>(in));
    } else if constexpr (std::is_integral_v<T> || std::is_enum_v<T>) {
        h.add(static_cast<std::uint64_t>(in));
    } else if constexpr (std::ranges::sized_range<T>) {
        h.add(in.size());
        for (const auto &item : in)
            addKeyWords(h, item);
    } else {
        visitFields(in, [&h](const auto &...fields) {
            (addKeyWords(h, fields), ...);
        });
    }
}

/** FNV-1a content key over @p inputs, in order (see addKeyWords). */
template <typename... T>
std::uint64_t
contentKey(const T &...inputs)
{
    Fnv1a h;
    (addKeyWords(h, inputs), ...);
    return h.value();
}

/** One sweep point on the wire, with its index in the client's
 *  batch. */
struct SweepRequest : RunPoint
{
    std::uint32_t pointIndex = 0;
};

std::vector<std::uint8_t>
encodeSweepRequestPayload(const SweepRequest &request);
/** Hostile-input safe: rejects, never aborts, on a malformed or
 *  out-of-range request. */
bool decodeSweepRequestPayload(const std::vector<std::uint8_t> &payload,
                               SweepRequest &out);

/** SweepResult payload: point index, cache-hit flag, then the
 *  sweep-cache SynthResult payload (sim/sweep_cache.hpp codec). */
std::vector<std::uint8_t>
encodeSweepResultPayload(std::uint32_t point_index, bool cache_hit,
                         const std::vector<std::uint8_t> &result_payload);
bool decodeSweepResultPayload(const std::vector<std::uint8_t> &payload,
                              std::uint32_t &point_index,
                              bool &cache_hit, SynthResult &out);

/** MetricsEpoch payload: name/value pairs in name order. */
std::vector<std::uint8_t>
encodeMetricsPayload(const std::map<std::string, double> &values);
bool decodeMetricsPayload(const std::vector<std::uint8_t> &payload,
                          std::map<std::string, double> &out);

/** Upper bound on a slice's cycle budget. The daemon runs a slice
 *  synchronously in its frame handler, so this (enforced when the
 *  request is decoded, and by runShardedSim on the client) bounds
 *  the compute one snapshotRequest frame can demand — 50x the
 *  default whole-run guard, far past any sane slice, but finite. */
inline constexpr Cycle kMaxSliceCycles = 1'000'000'000;

/** a + b without wrapping — slice budgets arrive off the wire, so
 *  consumed + sliceCycles must saturate rather than overflow. */
inline constexpr Cycle
saturatingAddCycles(Cycle a, Cycle b)
{
    return a + b < a ? ~Cycle{0} : a + b;
}

/**
 * One temporal-shard slice on the wire (snapshotRequest payload), the
 * first a session sends for a run. The request is self-contained — the
 * daemon is stateless across sessions: it carries the run's full
 * inputs (config + workload or trace), the slice/guard budgets, the
 * checkpoint key the client derived (the daemon re-derives and must
 * agree before trusting the snapshot), and the previous slice's
 * trimmed snapshot (absent on the run's first slice). Later slices on
 * the same session are ShardSliceContinuations.
 */
struct ShardSliceRequest
{
    SnapshotKind kind = SnapshotKind::synthetic;
    NocConfig config;
    /** Always 1: slice execution needs engine-state capture. */
    std::uint32_t channels = 1;
    /** Valid when kind == synthetic. */
    SyntheticWorkload workload;
    /** Valid when kind == trace. */
    Trace trace;
    /** Run-relative cycles this slice should advance
     *  (1..kMaxSliceCycles; the decoder rejects anything else). */
    Cycle sliceCycles = 1;
    /** Run-relative guard of the whole run (SimConfig::maxCycles). */
    Cycle runMaxCycles = kDefaultMaxCycles;
    /** checkpointKey(config, channels, workload|trace). */
    std::uint64_t key = 0;
    bool hasSnapshot = false;
    Snapshot snapshot;

    /** The key this request's inputs derive (what key must hold). */
    std::uint64_t inputKey() const
    {
        return kind == SnapshotKind::synthetic
                   ? checkpointKey(config, channels, workload)
                   : checkpointKey(config, channels, trace);
    }
    /** Run-relative cycles done before this slice (0 on the first).
     *  Wraps for a snapshot taken before its runStart; a peer's
     *  snapshot must be checked for that first. */
    Cycle consumed() const
    {
        return hasSnapshot ? snapshot.cycle() - snapshot.runStart : 0;
    }
};

std::vector<std::uint8_t>
encodeShardSliceRequestPayload(const ShardSliceRequest &request);
/** Hostile-input safe: bounds-checks every count before allocating
 *  and validates trace/workload/config ranges without aborting. */
bool decodeShardSliceRequestPayload(
    const std::vector<std::uint8_t> &payload, ShardSliceRequest &out);

/**
 * A later slice of the run whose inputs the session's snapshotRequest
 * carried (sliceContinuation payload): that request's checkpoint key
 * and the previous slice's trimmed snapshot. The daemon takes the
 * inputs and both cycle budgets from the session's request, so the
 * trace or workload crosses the wire once per session.
 */
struct ShardSliceContinuation
{
    std::uint64_t key = 0;
    Snapshot snapshot;
};

std::vector<std::uint8_t>
encodeShardSliceContinuationPayload(const ShardSliceContinuation &next);
/** Hostile-input safe; the caller checks the key and the snapshot's
 *  kind against its session's run. */
bool decodeShardSliceContinuationPayload(
    const std::vector<std::uint8_t> &payload, ShardSliceContinuation &out);

/** snapshotResult payload: the slice's outcome + handoff snapshot. */
struct ShardSliceResult
{
    SnapshotKind kind = SnapshotKind::synthetic;
    /** Run finished (drained/completed or hit runMaxCycles); no
     *  further slices are needed. */
    bool done = false;
    /** Valid when kind == synthetic. Stats are slice-local; cycles
     *  is run-relative (the temporal-shard merge contract). */
    SynthResult synth;
    /** Valid when kind == trace. */
    TraceResult trace;
    /** The trimmed next-slice snapshot (present iff !done). */
    bool hasSnapshot = false;
    Snapshot snapshot;
};

std::vector<std::uint8_t>
encodeShardSliceResultPayload(const ShardSliceResult &result);
bool decodeShardSliceResultPayload(
    const std::vector<std::uint8_t> &payload, ShardSliceResult &out);

} // namespace fasttrack

#endif // FT_SIM_RUN_CODEC_HPP
