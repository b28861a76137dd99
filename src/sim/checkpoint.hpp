/**
 * @file
 * Snapshot files for checkpoint/restore and deterministic
 * time-slicing (docs/checkpoint.md).
 *
 * A Snapshot bundles the complete dynamic state of one run at a
 * cycle boundary: the engine state (noc/engine_state.hpp) plus the
 * workload driver's state — the synthetic injector's RNG/backlogs or
 * the trace replayer's dependency/ready/queue state. Restoring it
 * into freshly constructed objects of the same configuration
 * continues the run bit-identically, so a run cut into N slices
 * (snapshot every M cycles, each slice resumed from the previous
 * slice's file) produces golden-stats hashes identical to the
 * uninterrupted run.
 *
 * On disk a snapshot is a keyed file (sched/keyed_file.hpp, the
 * container the result cache's entries use too) with magic 'FTCP'.
 * The key is a content hash of the run's *inputs* (config, channels,
 * workload or full trace — not maxCycles, which only guards, never
 * shapes, the trajectory), so a resume can never silently continue
 * the wrong experiment. Every load re-validates the container and
 * then the payload; anything wrong degrades to a typed rejection and
 * the caller recomputes from scratch.
 *
 * Files are named ft-snap-<cycle, zero-padded>.ftcp so the latest
 * snapshot of a directory is the lexicographically largest name —
 * selection is deterministic, independent of file mtimes.
 */

#ifndef FT_SIM_CHECKPOINT_HPP
#define FT_SIM_CHECKPOINT_HPP

#include <cstdint>
#include <string>
#include <vector>

#include "noc/engine_state.hpp"
#include "sched/keyed_file.hpp"
#include "traffic/injector.hpp"
#include "traffic/trace.hpp"
#include "traffic/trace_replay.hpp"

namespace fasttrack {

struct NocConfig;

/** Snapshot container magic: "FTCP" read as little-endian u32. */
inline constexpr std::uint32_t kCheckpointMagic = 0x50435446u;
/** Payload layout version; bump whenever the Snapshot encoding or
 *  the key derivation changes so stale files are rejected. */
inline constexpr std::uint32_t kCheckpointSchema = 2;

/** Which workload driver's state the snapshot carries. */
enum class SnapshotKind : std::uint8_t
{
    synthetic = 1,
    trace = 2,
};

/** True when @p k names a declared kind; wire decoders refuse the
 *  rest (net/codec.hpp). */
constexpr bool
knownValue(SnapshotKind k)
{
    return k == SnapshotKind::synthetic || k == SnapshotKind::trace;
}

/** One resumable run state (see file comment). */
struct Snapshot
{
    SnapshotKind kind = SnapshotKind::synthetic;
    /** Cycle the (possibly multi-slice) run originally started at;
     *  anchors the run-relative maxCycles guard across slices. */
    Cycle runStart = 0;
    EngineState engine;
    /** Valid when kind == synthetic. */
    InjectorState injector;
    /** Valid when kind == trace. */
    TraceReplayState replay;

    /** Cycle the snapshot was taken at. */
    Cycle cycle() const { return engine.cycle; }

    /**
     * Temporal-shard handoff hook for the ftd fleet: drop the
     * engine's measurement block (EngineState::trim) so a downstream
     * daemon resumes the traffic mid-flight but measures only its
     * own slice. Driver state is untouched — it is functional, not
     * measured.
     */
    void trimState() { engine.trim(); }
};

/** Content key of a synthetic run's inputs (config + channels +
 *  workload; deliberately excludes maxCycles — the guard bounds the
 *  run but does not alter its trajectory). */
std::uint64_t checkpointKey(const NocConfig &config,
                            std::uint32_t channels,
                            const SyntheticWorkload &workload);
/** Content key of a trace run's inputs (config + channels + the full
 *  trace content, messages and dependencies included). */
std::uint64_t checkpointKey(const NocConfig &config,
                            std::uint32_t channels, const Trace &trace);

/** Serialize the snapshot payload (without the file container). */
std::vector<std::uint8_t> encodeSnapshot(const Snapshot &snap);
/** Rebuild a Snapshot from a payload; false when any field fails to
 *  parse or the embedded engine state is inconsistent. */
bool decodeSnapshot(const std::vector<std::uint8_t> &payload,
                    Snapshot &out);

/** File name a snapshot taken at @p cycle is stored under. */
std::string snapshotFileName(Cycle cycle);

/**
 * Write @p snap into @p dir (created if missing) under its cycle's
 * file name, keyed by @p key. The write goes to a temp file renamed
 * into place, so a concurrent reader never observes a half-written
 * snapshot. @p path_out (optional) receives the final path.
 */
sched::KeyedFileStatus writeSnapshotFile(const std::string &dir,
                                         std::uint64_t key,
                                         const Snapshot &snap,
                                         std::string *path_out = nullptr);

/** Load and fully validate one snapshot file: the container, then the
 *  payload (malformed when it does not decode). */
sched::KeyedFileStatus readSnapshotFile(const std::string &path,
                                        std::uint64_t expected_key,
                                        Snapshot &out);

/** Path of the latest (highest-cycle) snapshot file in @p dir, or ""
 *  when the directory holds none. Deterministic: decided by the
 *  cycle number encoded in the name, never by mtime. */
std::string findLatestSnapshot(const std::string &dir);

} // namespace fasttrack

#endif // FT_SIM_CHECKPOINT_HPP
