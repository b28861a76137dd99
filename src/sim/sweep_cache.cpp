#include "sim/sweep_cache.hpp"

#include <atomic>

#include "common/parallel.hpp"
#include "net/wire.hpp"
#include "noc/engine_state.hpp"
#include "sched/work_stealing_pool.hpp"
#include "sim/remote.hpp"
#include "sim/run_codec.hpp"
#include "telemetry/sink.hpp"

namespace fasttrack {

namespace {

std::atomic<bool> g_cacheEnabled{true};

} // namespace

std::uint64_t
sweepKey(const NocConfig &config, std::uint32_t channels,
         const SyntheticWorkload &workload, Cycle max_cycles)
{
    return contentKey(kSweepCacheSchema, config, channels, workload,
                      max_cycles);
}

std::vector<std::uint8_t>
encodeSynthResult(const SynthResult &result)
{
    // The stats block reuses the shared codec (noc/engine_state.hpp),
    // whose field order is exactly what this file has always written
    // — payload bytes are unchanged, hence no schema bump.
    net::WireWriter w;
    encodeNocStats(w, result.stats);
    w.u64(result.cycles);
    w.u32(result.pes);
    w.f64(result.offeredRate);
    w.u8(result.completed ? 1 : 0);
    return w.take();
}

bool
decodeSynthResult(const std::vector<std::uint8_t> &payload,
                  SynthResult &out)
{
    SynthResult result;
    net::WireReader r(payload);
    std::uint64_t cycles = 0;
    std::uint8_t completed = 0;
    const bool ok = decodeNocStats(r, result.stats) && r.u64(cycles) &&
                    r.u32(result.pes) && r.f64(result.offeredRate) &&
                    r.u8(completed) && r.atEnd();
    if (!ok)
        return false;
    result.cycles = cycles;
    result.completed = completed != 0;
    out = result;
    return true;
}

sched::BlobCache &
sweepCache()
{
    static sched::BlobCache cache("sweep_cache", kSweepCacheSchema);
    return cache;
}

std::optional<std::vector<std::uint8_t>>
probeSweepCache(std::uint64_t key, SynthResult &out)
{
    std::optional<std::vector<std::uint8_t>> payload =
        sweepCache().lookup(key);
    if (payload && !decodeSynthResult(*payload, out))
        payload.reset();
    return payload;
}

void
setSweepCacheEnabled(bool enabled)
{
    g_cacheEnabled.store(enabled, std::memory_order_relaxed);
}

bool
sweepCacheEnabled()
{
    return g_cacheEnabled.load(std::memory_order_relaxed);
}

std::vector<SynthResult>
cachedRuns(const NocConfig &config, std::uint32_t channels,
           const std::vector<SyntheticWorkload> &workloads,
           Cycle max_cycles)
{
    if (remoteConfigured() && telemetry::installed() == nullptr)
        return remoteBatchedRuns(config, channels, workloads, max_cycles);
    sched::ensureGlobalPool();
    return parallelMap(
        workloads,
        [&](const SyntheticWorkload &w) {
            return cachedRunSynthetic(config, channels, w, max_cycles);
        },
        0, "cachedRuns");
}

} // namespace fasttrack
