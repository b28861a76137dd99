#include "sim/sweep_cache.hpp"

#include <atomic>
#include <numeric>
#include <unordered_map>
#include <utility>

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

std::uint64_t
sweepKey(const RunPoint &point)
{
    return sweepKey(point.config, point.channels, point.workload,
                    point.maxCycles);
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
    out = std::move(result);
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
runPoints(const std::vector<RunPoint> &points)
{
    // Run the first point of each key; a repeat copies its result.
    std::vector<RunPoint> distinct;
    std::vector<std::uint64_t> keys;
    std::vector<std::size_t> first(points.size());
    std::unordered_map<std::uint64_t, std::size_t> seen;
    for (std::size_t i = 0; i < points.size(); ++i) {
        const std::uint64_t key = sweepKey(points[i]);
        const auto [at, added] = seen.try_emplace(key, i);
        first[i] = at->second;
        if (added) {
            distinct.push_back(points[i]);
            keys.push_back(key);
        }
    }

    std::vector<SynthResult> results =
        remoteConfigured() && telemetry::installed() == nullptr
            ? remoteRunPoints(distinct, keys)
            : computePoints(distinct);
    if (distinct.size() == points.size())
        return results;
    std::vector<SynthResult> out(points.size());
    auto next = results.begin();
    for (std::size_t i = 0; i < points.size(); ++i)
        out[i] = first[i] == i ? std::move(*next++) : out[first[i]];
    return out;
}

std::vector<SynthResult>
computePoints(const std::vector<RunPoint> &points,
              const std::vector<std::uint64_t> *probed_keys)
{
    std::vector<std::size_t> order(points.size());
    std::iota(order.begin(), order.end(), std::size_t{0});
    sched::ensureGlobalPool();
    return parallelMap(
        order,
        [&](std::size_t i) {
            const RunPoint &p = points[i];
            SynthResult result =
                runSim({.config = &p.config,
                        .channels = p.channels,
                        .workload = &p.workload,
                        .sim = {.maxCycles = p.maxCycles},
                        .useCache = probed_keys == nullptr})
                    .synth;
            if (probed_keys)
                sweepCache().store((*probed_keys)[i],
                                   encodeSynthResult(result));
            return result;
        },
        0, "computePoints");
}

} // namespace fasttrack
