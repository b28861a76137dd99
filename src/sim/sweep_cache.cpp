#include "sim/sweep_cache.hpp"

#include <numeric>
#include <unordered_map>
#include <utility>

#include "common/parallel.hpp"
#include "net/codec.hpp"
#include "sim/remote.hpp"
#include "sim/run_codec.hpp"
#include "telemetry/sink.hpp"

namespace fasttrack {

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
    net::WireWriter w;
    put(w, result);
    return w.take();
}

bool
decodeSynthResult(const std::vector<std::uint8_t> &payload,
                  SynthResult &out)
{
    SynthResult result;
    net::WireReader r(payload);
    if (!get(r, result) || !r.atEnd())
        return false;
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
