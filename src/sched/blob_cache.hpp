/**
 * @file
 * Content-addressed result cache: an in-memory map from 64-bit
 * content keys to opaque payload blobs, with an optional on-disk
 * store so results survive across process invocations.
 *
 * The in-memory tier holds at most kMemoryBudgetBytes of payload: an
 * insert that pushes it over evicts the oldest inserts first (the
 * entry just inserted is never a victim). A long-lived process, the
 * ftd daemon above all, therefore stops growing; an evicted entry is
 * recomputed, or reloaded when a disk store is attached.
 *
 * Keys are FNV-1a hashes of the *inputs* that determine a result
 * (the sweep layer hashes (NocConfig, channels, SyntheticWorkload,
 * maxCycles) — see sim/sweep_cache.hpp). Because every simulation is
 * bit-deterministic in those inputs, a key hit can substitute the
 * stored result for a re-run.
 *
 * On disk each entry is one keyed file (sched/keyed_file.hpp, the
 * container snapshot files use too) with magic 'FTRC', named
 * ft-<key:016x>.ftrc in the configured directory. An entry written on
 * one host validates on any other, so the distributed fabric shares
 * these files across nodes. An absent entry is a plain miss; a
 * truncated, corrupt or stale-schema one counts as corrupt and the
 * result is recomputed, never trusted.
 *
 * Disk growth is bounded: setMaxDiskBytes(cap) enables LRU-ish
 * eviction (oldest write time first) whenever the store exceeds the
 * cap; evictions are counted and published via reportTo.
 */

#ifndef FT_SCHED_BLOB_CACHE_HPP
#define FT_SCHED_BLOB_CACHE_HPP

#include <cstdint>
#include <list>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/counters.hpp"
#include "common/fnv1a.hpp"
#include "common/thread_annotations.hpp"
#include "telemetry/metrics.hpp"

namespace fasttrack::sched {

/** FNV-1a hasher (key derivation + self-checks). Now shared with
 *  the wire layer; lives in common/fnv1a.hpp and feeds words as
 *  little-endian bytes so keys are host-independent. */
using Fnv1a = fasttrack::Fnv1a;

class BlobCache
{
  public:
    /** Lifetime counters (a counter set, common/counters.hpp). */
    struct Stats
    {
        /** Lookups answered from memory or disk. */
        std::uint64_t hits = 0;
        /** Lookups that found nothing (caller recomputes). */
        std::uint64_t misses = 0;
        /** Subset of hits served by loading a disk entry. */
        std::uint64_t diskHits = 0;
        /** Entries inserted. */
        std::uint64_t stores = 0;
        /** Entries persisted to the disk store. */
        std::uint64_t diskWrites = 0;
        /** Disk entries rejected (bad magic/schema/key/hash/size). */
        std::uint64_t corrupt = 0;
        /** Lookups skipped by the caller (e.g. telemetry active). */
        std::uint64_t bypasses = 0;
        /** Disk entries deleted to stay under the size cap. */
        std::uint64_t evictions = 0;
        /** Memory entries dropped to stay under the memory budget. */
        std::uint64_t memoryEvictions = 0;

        /** Exported as <name>.hits, <name>.misses, ... */
        static constexpr CounterField<Stats> kCounters[] = {
            {&Stats::hits, "hits"},
            {&Stats::misses, "misses"},
            {&Stats::diskHits, "disk_hits"},
            {&Stats::stores, "stores"},
            {&Stats::diskWrites, "disk_writes"},
            {&Stats::corrupt, "corrupt"},
            {&Stats::bypasses, "bypasses"},
            {&Stats::evictions, "evictions"},
            {&Stats::memoryEvictions, "memory_evictions"},
        };
    };

    /** Payload bytes the in-memory tier may hold. Sized for the
     *  points bench_all's grid repeats within a pass, which the point
     *  executor now drops before they run; it still keeps a grid
     *  issued call by call in memory across its calls and lets a warm
     *  daemon answer recent requests from memory, while bounding what
     *  a long-lived daemon holds of points nobody asks for again
     *  (docs/scheduler.md, "Memory tier"). */
    static constexpr std::uint64_t kMemoryBudgetBytes = std::uint64_t{4}
                                                        << 20;

    /**
     * @param name metric prefix (reportTo publishes <name>.hits ...).
     * @param schemaVersion payload layout version; bump it whenever
     * the encoded payload or the key derivation changes so stale disk
     * entries are rejected instead of mis-decoded.
     */
    BlobCache(std::string name, std::uint32_t schemaVersion);

    /** Attach (non-empty) or detach ("") the on-disk store. The
     *  directory is created on first write. */
    void setDir(std::string dir);
    std::string dir() const;

    /**
     * Cap the disk store at @p max_bytes (0 = unbounded, the
     * default; the --result-cache-max-bytes flag wires here). When
     * a write pushes the store over the cap, entries are evicted
     * oldest-write-first until it fits again — LRU-ish: write
     * recency approximates access recency for sweep workloads,
     * and needs no mtime touching (which would be nondeterministic)
     * on the hit path. The entry just written is never evicted.
     */
    void setMaxDiskBytes(std::uint64_t max_bytes);

    /** Current on-disk store size in bytes (0 when detached). */
    std::uint64_t diskBytes() const;

    /** Payload bytes held by the in-memory tier. */
    std::uint64_t memoryBytes() const;

    std::uint32_t schemaVersion() const { return schema_; }

    /** The payload stored under @p key, from memory or disk. */
    std::optional<std::vector<std::uint8_t>> lookup(std::uint64_t key);

    /** Insert @p payload under @p key (and persist it when a disk
     *  store is attached). Idempotent for deterministic payloads; a
     *  re-stored key counts as the newest insert. */
    void store(std::uint64_t key, std::vector<std::uint8_t> payload);

    /** Record a lookup the caller elected to skip. */
    void noteBypass() { counters_.bump(&Stats::bypasses); }

    /** Drop every in-memory entry (disk entries stay). Tests use this
     *  to force the disk-load path. */
    void clearMemory();

    Stats stats() const { return counters_.snapshot(); }

    /** Publish counters as <name>.hits, <name>.misses, ... and the
     *  <name>.disk_bytes and <name>.memory_bytes gauges. */
    void reportTo(telemetry::MetricsRegistry &metrics) const;

    /** Entry file path for @p key under the current dir ("" when no
     *  disk store is attached). Exposed for tests. */
    std::string entryPath(std::uint64_t key) const;

  private:
    /** An in-memory payload and its place in the insertion order. */
    struct MemEntry
    {
        std::vector<std::uint8_t> payload;
        std::list<std::uint64_t>::iterator order;
    };

    /** Insert into the memory tier as the newest entry, then evict
     *  the oldest others until the tier fits its budget. */
    void insertMemory(std::uint64_t key,
                      std::vector<std::uint8_t> payload)
        FT_REQUIRES(mutex_);
    std::optional<std::vector<std::uint8_t>>
    loadDiskEntry(std::uint64_t key);
    void writeDiskEntry(std::uint64_t key,
                        const std::vector<std::uint8_t> &payload);
    /** Sum the store's entry sizes once per attach (under mutex_). */
    void ensureDiskScanned() const FT_REQUIRES(mutex_);
    /** Evict oldest entries until the store fits the cap, sparing
     *  @p keep_path (the entry just written). */
    void evictOverCap(const std::string &keep_path);

    std::string name_;
    std::uint32_t schema_;
    mutable Mutex mutex_;
    std::string dir_ FT_GUARDED_BY(mutex_);
    std::unordered_map<std::uint64_t, MemEntry> mem_ FT_GUARDED_BY(mutex_);
    /** Keys of mem_, oldest insert first. */
    std::list<std::uint64_t> memOrder_ FT_GUARDED_BY(mutex_);
    std::uint64_t memBytes_ FT_GUARDED_BY(mutex_) = 0;
    std::uint64_t maxDiskBytes_ FT_GUARDED_BY(mutex_) = 0;
    /** Lazily-scanned store size; mutable so const readers
     *  (diskBytes, reportTo) can trigger the scan under mutex_. */
    mutable std::uint64_t diskBytes_ FT_GUARDED_BY(mutex_) = 0;
    mutable bool diskScanned_ FT_GUARDED_BY(mutex_) = false;

    CounterTally<Stats> counters_;
};

} // namespace fasttrack::sched

#endif // FT_SCHED_BLOB_CACHE_HPP
