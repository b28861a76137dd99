#include "workloads.hpp"

#include <filesystem>
#include <iostream>
#include <set>
#include <vector>

#include "common/rng.hpp"
#include "daemon.hpp"
#include "grid.hpp"
#include "layers.hpp"
#include "net/endpoint.hpp"
#include "sched/work_stealing_pool.hpp"
#include "sim/remote.hpp"
#include "sim/sweep_cache.hpp"

namespace perfbench {

namespace {

/** Timed passes per run, whatever the time budget. */
constexpr std::size_t kMinPasses = 3;
/** Set-ups per run; the median is reported. synth-sweep's set-up
 *  takes about a millisecond, so it is repeated most; filling the warm
 *  store is a whole cold sweep, so it is repeated least. */
constexpr int kSynthSetupRepeats = 25;
constexpr int kTraceSetupRepeats = 5;
constexpr int kWarmSetupRepeats = 2;
constexpr int kDaemonSetupRepeats = 3;
/** Rounds of the codec micro-timings in the traced runs. */
constexpr int kCodecRounds = 10;
/** Slices the sharded LU replay of remote-loopback is cut into. */
constexpr Cycle kShardSlices = 10;

/** Seed of remote-loopback's pass @p index: every pass sends the
 *  daemon points it has not seen. */
std::uint64_t
remotePassSeed(std::uint64_t seed, std::size_t index)
{
    return splitmix64(seed ^ (std::uint64_t{index + 1} << 20));
}

double
msBetween(Clock::time_point a, Clock::time_point b)
{
    return static_cast<double>(nsBetween(a, b)) / 1e6;
}

// --- end-to-end measurement ----------------------------------------------

/** What one timed pass produced. */
struct Pass
{
    double wall = 0.0;
    double routerCycles = 0.0;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
};

/** The pass that started at @p start and produced @p results; call it
 *  as soon as the timed work ends. */
template <typename Result>
Pass
timedPass(Clock::time_point start, const std::vector<Result> &results)
{
    Pass p;
    p.wall = secondsSince(start);
    p.attempted = results.size();
    for (const Result &r : results)
        p.routerCycles += routerCycles(r);
    return p;
}

struct PassLog
{
    std::vector<double> walls;
    std::vector<double> rates;
};

/** Run @p pass until opt.seconds have elapsed and at least kMinPasses
 *  passes are done; failures and attempts land in @p out. */
template <typename PassFn>
PassLog
timePasses(const Options &opt, Outcome &out, PassFn &&pass)
{
    PassLog log;
    const auto begin = Clock::now();
    while (log.walls.size() < kMinPasses ||
           secondsSince(begin) < opt.seconds) {
        const Pass p = pass(log.walls.size());
        std::cerr << "perfbench: pass " << log.walls.size() << ": "
                  << p.wall << " s\n";
        log.walls.push_back(p.wall);
        log.rates.push_back(ratio(p.routerCycles, p.wall));
        out.attempted += p.attempted;
        out.failed += p.failed;
    }
    out.passes = log.walls.size();
    return log;
}

/** Time @p repeats calls of @p setup(k). */
template <typename SetupFn>
std::vector<double>
timeSetups(int repeats, SetupFn &&setup)
{
    std::vector<double> out;
    for (int k = 0; k < repeats; ++k) {
        const auto start = Clock::now();
        setup(k);
        out.push_back(secondsSince(start));
    }
    return out;
}

void
addEndToEnd(Outcome &out, const PassLog &log,
            const std::vector<double> &setups, double rss_kb)
{
    out.metrics.add("wall_s", median(log.walls), "s");
    out.metrics.add("router_cycles_per_s", median(log.rates), "1/s");
    out.metrics.add("setup_s", median(setups), "s");
    out.metrics.add("peak_rss_mb", rss_kb / 1024.0, "MB");
}

// --- per-layer measurement ----------------------------------------------

RemoteStats
minus(const RemoteStats &a, const RemoteStats &b)
{
    RemoteStats d;
    d.pointsRemote = a.pointsRemote - b.pointsRemote;
    d.remoteCacheHits = a.remoteCacheHits - b.remoteCacheHits;
    d.localCacheHits = a.localCacheHits - b.localCacheHits;
    d.pointsFallback = a.pointsFallback - b.pointsFallback;
    d.connectFailures = a.connectFailures - b.connectFailures;
    d.reconnects = a.reconnects - b.reconnects;
    d.errorFrames = a.errorFrames - b.errorFrames;
    d.slicesRemote = a.slicesRemote - b.slicesRemote;
    d.slicesFallback = a.slicesFallback - b.slicesFallback;
    return d;
}

/** Host-side counters read before and after a pass. */
struct HostSnapshot
{
    Clock::time_point at;
    double cpu = 0.0;
    sched::WorkStealingPool::Stats pool;
    sched::BlobCache::Stats cache;
    RemoteStats remote;

    static HostSnapshot take()
    {
        return {Clock::now(), cpuSeconds(),
                sched::ensureGlobalPool().stats(), sweepCache().stats(),
                remoteLifetimeStats()};
    }
};

/** Everything the traced run reports; layers a workload does not
 *  reach stay 0. */
struct LayerReport
{
    LayerTotals layers;
    /** Untraced single-thread runSim time of each point (ms). */
    std::vector<double> pointMs;
    /** Σ traced / untraced single-thread time of the same points. */
    double tracedSeconds = 0.0;
    double untracedSeconds = 0.0;
    /** Results of the pass, for the exact simulated counts. */
    double routerCycles = 0.0;
    double deflections = 0.0;

    double cacheHits = 0.0;
    double cacheLookups = 0.0;
    std::vector<double> keyNs, encodeNs, decodeNs, diskLookupUs,
        payloadBytes;
    CheckpointTimes checkpoint;

    double passWall = 0.0;
    double cpuSeconds = 0.0;
    double workers = 0.0;
    double tasks = 0.0;
    double steals = 0.0;
    /** Wall time of each sweep-layer call of the pass (ms). */
    std::vector<double> callMs;

    double sweepOverheadMs = 0.0;
    double sliceOverheadMs = 0.0;
    RemoteStats net;
    double tracegenSeconds = 0.0;

    void notePass(const HostSnapshot &before, const HostSnapshot &after)
    {
        passWall = std::chrono::duration<double>(after.at - before.at)
                       .count();
        cpuSeconds = after.cpu - before.cpu;
        workers = sched::ensureGlobalPool().workerCount() + 1.0;
        tasks = static_cast<double>(after.pool.tasks - before.pool.tasks);
        steals =
            static_cast<double>(after.pool.steals - before.pool.steals);
        const auto hits = after.cache.hits - before.cache.hits;
        cacheHits = static_cast<double>(hits);
        cacheLookups = static_cast<double>(
            hits + after.cache.misses - before.cache.misses);
        net = minus(after.remote, before.remote);
    }

    template <typename Result>
    void noteResults(const std::vector<Result> &results)
    {
        for (const Result &r : results) {
            routerCycles += perfbench::routerCycles(r);
            deflections += static_cast<double>(r.stats.totalDeflections());
        }
    }

    Metrics metrics() const;
};

Metrics
LayerReport::metrics() const
{
    const LayerTotals &l = layers;
    const double inject_ns = l.injectNs + l.injectDrainNs;
    const double step_ns = l.stepNs + l.stepDrainNs;
    auto count = [](std::uint64_t v) { return static_cast<double>(v); };
    Metrics m;
    m.add("traffic.inject.busy_s", inject_ns / 1e9, "s");
    m.add("traffic.inject.ns_per_node_cycle",
          ratio(inject_ns, l.routerCycles), "ns");
    m.add("traffic.inject.drain_busy_s", l.injectDrainNs / 1e9, "s");
    m.add("traffic.inject.share", ratio(inject_ns, inject_ns + step_ns),
          "ratio");
    m.add("traffic.replay.busy_s", l.replayNs / 1e9, "s");
    m.add("traffic.replay.share", ratio(l.replayNs, l.replayNs + step_ns),
          "ratio");
    m.add("traffic.replay.messages", count(l.messages), "count");
    m.add("noc.step.busy_s", step_ns / 1e9, "s");
    m.add("noc.step.ns_per_router_cycle", ratio(step_ns, l.routerCycles),
          "ns");
    m.add("noc.step.drain_busy_s", l.stepDrainNs / 1e9, "s");
    m.add("noc.build.busy_s", l.buildNs / 1e9, "s");
    m.add("noc.router_cycles", routerCycles, "count");
    m.add("noc.deflections", deflections, "count");
    m.add("sim.point.p50_ms", quantile(pointMs, 0.5), "ms");
    m.add("sim.point.p90_ms", quantile(pointMs, 0.9), "ms");
    m.add("sim.cache.hit_ratio", ratio(cacheHits, cacheLookups), "ratio");
    m.add("sim.cache.key_ns", median(keyNs), "ns");
    m.add("sim.cache.encode_ns", median(encodeNs), "ns");
    m.add("sim.cache.decode_ns", median(decodeNs), "ns");
    m.add("sim.cache.disk_lookup_us", median(diskLookupUs), "us");
    m.add("sim.cache.payload_bytes", mean(payloadBytes), "bytes");
    m.add("sim.checkpoint.capture_us", median(checkpoint.captureUs), "us");
    m.add("sim.checkpoint.restore_us", median(checkpoint.restoreUs), "us");
    m.add("sim.checkpoint.encode_us", median(checkpoint.encodeUs), "us");
    m.add("sim.checkpoint.decode_us", median(checkpoint.decodeUs), "us");
    m.add("sim.checkpoint.snapshot_bytes", mean(checkpoint.snapshotBytes),
          "bytes");
    m.add("sched.pool.parallel_efficiency",
          ratio(untracedSeconds, workers * passWall), "ratio");
    m.add("sched.pool.cpu_utilization",
          ratio(cpuSeconds, workers * passWall), "ratio");
    m.add("sched.pool.tasks", tasks, "count");
    m.add("sched.pool.steals", steals, "count");
    m.add("sched.sweep.p50_ms", median(callMs), "ms");
    m.add("net.sweep.overhead_ms", sweepOverheadMs, "ms");
    m.add("net.slice.overhead_ms", sliceOverheadMs, "ms");
    m.add("net.points_remote", count(net.pointsRemote), "count");
    m.add("net.points_fallback", count(net.pointsFallback), "count");
    m.add("net.slices_remote", count(net.slicesRemote), "count");
    m.add("net.slices_fallback", count(net.slicesFallback), "count");
    m.add("net.connect_failures", count(net.connectFailures), "count");
    m.add("net.error_frames", count(net.errorFrames), "count");
    m.add("net.remote_cache_hits", count(net.remoteCacheHits), "count");
    m.add("workloads.tracegen_s", tracegenSeconds, "s");
    m.add("trace.overhead", ratio(tracedSeconds, untracedSeconds),
          "ratio");
    return m;
}

/** Run @p grid's calls in order, one span and one wall time each. */
std::vector<SynthResult>
gridWithSpans(const std::vector<SynthCall> &grid, std::vector<double> &call_ms,
              SpanLog &spans, SpanLog::Id parent)
{
    std::vector<SynthResult> out;
    for (const SynthCall &call : grid) {
        const auto start = Clock::now();
        for (SynthResult &r : runCall(call))
            out.push_back(std::move(r));
        const auto end = Clock::now();
        spans.add(call.label, parent, start, end);
        call_ms.push_back(msBetween(start, end));
    }
    return out;
}

/** Count the points of @p results (one per point) that fail
 *  synthPointOk or differ from @p reference (when given). */
std::uint64_t
badPoints(const std::vector<SynthPoint> &points,
          const std::vector<SynthResult> &results,
          const std::vector<std::vector<std::uint8_t>> *reference)
{
    std::uint64_t bad = 0;
    for (std::size_t i = 0; i < points.size(); ++i) {
        const bool ok =
            synthPointOk(results[i], points[i].workload) &&
            (!reference || resultBytes(results[i]) == (*reference)[i]);
        bad += ok ? 0 : 1;
    }
    return bad;
}

template <typename Result>
std::vector<std::vector<std::uint8_t>>
encodeAll(const std::vector<Result> &results)
{
    std::vector<std::vector<std::uint8_t>> out;
    for (const Result &r : results)
        out.push_back(resultBytes(r));
    return out;
}

/** Indices of the points whose sweep key first appears there (later
 *  repeats are cache hits inside a pass, not simulations). */
std::vector<std::size_t>
uniquePoints(const std::vector<SynthPoint> &points)
{
    std::set<std::uint64_t> seen;
    std::vector<std::size_t> out;
    for (std::size_t i = 0; i < points.size(); ++i) {
        const SynthPoint &p = points[i];
        if (seen.insert(sweepKey(p.config, p.channels, p.workload)).second)
            out.push_back(i);
    }
    return out;
}

/**
 * Single-threaded, call by call: drive each unique point by hand
 * (traced), then run it through runSim (untraced). Both must equal
 * the pooled pass's result byte for byte.
 */
void
driveSynthPoints(const std::vector<SynthCall> &grid,
                 const std::vector<SynthPoint> &points,
                 const std::vector<SynthResult> &pooled, LayerReport &rep,
                 SpanLog &spans, SpanLog::Id parent, Outcome &out)
{
    SpanLog::Id call_span = 0;
    std::size_t current = grid.size();
    for (std::size_t i : uniquePoints(points)) {
        const SynthPoint &p = points[i];
        if (p.call != current) {
            if (call_span)
                spans.close(call_span);
            call_span = spans.open(grid[p.call].label, parent);
            current = p.call;
        }
        const auto t0 = Clock::now();
        const SynthResult traced = drivePoint(p.config, p.channels,
                                              p.workload, rep.layers,
                                              spans, call_span);
        const auto t1 = Clock::now();
        const SynthResult plain = runSim({.config = &p.config,
                                          .channels = p.channels,
                                          .workload = &p.workload})
                                      .synth;
        const auto t2 = Clock::now();
        rep.tracedSeconds += msBetween(t0, t1) / 1e3;
        rep.untracedSeconds += msBetween(t1, t2) / 1e3;
        rep.pointMs.push_back(msBetween(t1, t2));

        const std::vector<std::uint8_t> bytes = resultBytes(plain);
        ++out.attempted;
        if (!synthPointOk(plain, p.workload) ||
            resultBytes(traced) != bytes || resultBytes(pooled[i]) != bytes)
            ++out.failed;
    }
    if (call_span)
        spans.close(call_span);
}

/** Single-threaded hand-driven and runSim replays of every case; both
 *  must equal @p pooled (one result per case x config). */
void
driveReplays(const std::vector<TraceCase> &cases,
             const std::vector<TraceResult> &pooled, LayerReport &rep,
             SpanLog &spans, SpanLog::Id parent, Outcome &out)
{
    std::size_t k = 0;
    for (const TraceCase &tc : cases) {
        const SpanLog::Id call = spans.open(tc.trace.name, parent);
        for (const NocConfig &config : tc.configs) {
            const auto t0 = Clock::now();
            const TraceResult traced = driveReplay(
                config, tc.trace, kReplayMaxCycles, rep.layers, spans, call);
            const auto t1 = Clock::now();
            const TraceResult plain = replayOnce(config, tc.trace);
            const auto t2 = Clock::now();
            rep.tracedSeconds += msBetween(t0, t1) / 1e3;
            rep.untracedSeconds += msBetween(t1, t2) / 1e3;
            rep.pointMs.push_back(msBetween(t1, t2));

            const std::vector<std::uint8_t> bytes = resultBytes(plain);
            ++out.attempted;
            if (!replayOk(plain, tc.trace) ||
                resultBytes(traced) != bytes ||
                resultBytes(pooled[k]) != bytes)
                ++out.failed;
            ++k;
        }
        spans.close(call);
    }
}

/** Median-friendly per-call timings of the sweep-cache codec. */
void
timeCodec(const std::vector<SynthPoint> &points,
          const std::vector<SynthResult> &results, LayerReport &rep)
{
    const double n = static_cast<double>(points.size());
    std::vector<std::uint64_t> keys(points.size());
    std::vector<std::vector<std::uint8_t>> blobs(results.size());
    SynthResult decoded;
    for (int round = 0; round < kCodecRounds; ++round) {
        const auto t0 = Clock::now();
        for (std::size_t i = 0; i < points.size(); ++i)
            keys[i] = sweepKey(points[i].config, points[i].channels,
                               points[i].workload);
        const auto t1 = Clock::now();
        for (std::size_t i = 0; i < results.size(); ++i)
            blobs[i] = encodeSynthResult(results[i]);
        const auto t2 = Clock::now();
        for (const auto &blob : blobs)
            decodeSynthResult(blob, decoded);
        const auto t3 = Clock::now();
        rep.keyNs.push_back(static_cast<double>(nsBetween(t0, t1)) / n);
        rep.encodeNs.push_back(static_cast<double>(nsBetween(t1, t2)) / n);
        rep.decodeNs.push_back(static_cast<double>(nsBetween(t2, t3)) / n);
    }
    for (const auto &blob : blobs)
        rep.payloadBytes.push_back(static_cast<double>(blob.size()));
}

/** Add the traced-run metrics and write the span file. */
void
finishTraced(const Options &opt, const LayerReport &rep, SpanLog &spans,
             SpanLog::Id root, Outcome &out)
{
    spans.close(root);
    out.metrics = rep.metrics();
    out.passes = 1;
    const std::string path = opt.workDir + "/spans-" + opt.workload +
                             "-seed" + std::to_string(opt.seed) + ".json";
    if (!spans.write(path))
        ++out.failed;
}

/** Make every distinct device of @p points once: the grid's
 *  configuration check. */
void
buildDevices(const std::vector<SynthPoint> &points)
{
    std::set<std::string> built;
    for (const SynthPoint &p : points) {
        const std::string id =
            p.config.describe() + " x" + std::to_string(p.channels);
        if (built.insert(id).second)
            makeNoc(p.config, p.channels);
    }
}

} // namespace

// --- synth-sweep ------------------------------------------------------------

Outcome
runSynthSweep(const Options &opt)
{
    Outcome out;
    std::vector<SynthCall> grid;
    std::vector<SynthPoint> points;
    const std::vector<double> setups =
        timeSetups(kSynthSetupRepeats, [&](int) {
            sched::ensureGlobalPool();
            grid = synthGrid(opt.seed, opt.shortMode);
            points = gridPoints(grid);
            buildDevices(points);
        });

    if (opt.traced) {
        LayerReport rep;
        SpanLog spans;
        const SpanLog::Id root = spans.open(opt.workload, 0);
        sweepCache().clearMemory();
        const SpanLog::Id pass = spans.open("pooled pass", root);
        const HostSnapshot before = HostSnapshot::take();
        const std::vector<SynthResult> pooled =
            gridWithSpans(grid, rep.callMs, spans, pass);
        rep.notePass(before, HostSnapshot::take());
        spans.close(pass);
        rep.noteResults(pooled);
        out.attempted += points.size();
        out.failed += badPoints(points, pooled, nullptr);

        const SpanLog::Id single = spans.open("single-thread", root);
        driveSynthPoints(grid, points, pooled, rep, spans, single, out);
        spans.close(single);
        timeCodec(points, pooled, rep);
        finishTraced(opt, rep, spans, root, out);
        return out;
    }

    std::vector<std::vector<std::uint8_t>> reference;
    const PassLog log = timePasses(opt, out, [&](std::size_t) {
        sweepCache().clearMemory();
        const auto start = Clock::now();
        const std::vector<SynthResult> results = runGrid(grid);
        Pass p = timedPass(start, results);
        p.failed = badPoints(points, results,
                             reference.empty() ? nullptr : &reference);
        if (reference.empty())
            reference = encodeAll(results);
        return p;
    });
    addEndToEnd(out, log, setups, static_cast<double>(peakRssKb()));
    return out;
}

// --- trace-replay -----------------------------------------------------------

Outcome
runTraceReplay(const Options &opt)
{
    Outcome out;
    sched::ensureGlobalPool();
    std::vector<TraceCase> cases;
    const std::vector<double> setups = timeSetups(
        kTraceSetupRepeats,
        [&](int) { cases = traceSet(opt.seed, opt.shortMode); });

    auto run_cases = [&](std::vector<double> *call_ms, SpanLog *spans,
                         SpanLog::Id parent) {
        std::vector<TraceResult> results;
        for (const TraceCase &tc : cases) {
            const auto start = Clock::now();
            for (TraceResult &r : runTraceCase(tc))
                results.push_back(std::move(r));
            if (spans) {
                const auto end = Clock::now();
                spans->add(tc.trace.name, parent, start, end);
                call_ms->push_back(msBetween(start, end));
            }
        }
        return results;
    };
    auto bad_replays = [&](const std::vector<TraceResult> &results,
                           const std::vector<std::vector<std::uint8_t>>
                               *reference) {
        std::uint64_t bad = 0;
        std::size_t k = 0;
        for (const TraceCase &tc : cases) {
            for (std::size_t c = 0; c < tc.configs.size(); ++c, ++k) {
                const bool ok =
                    replayOk(results[k], tc.trace) &&
                    (!reference || resultBytes(results[k]) == (*reference)[k]);
                bad += ok ? 0 : 1;
            }
        }
        return bad;
    };

    if (opt.traced) {
        LayerReport rep;
        rep.tracegenSeconds = median(setups);
        SpanLog spans;
        const SpanLog::Id root = spans.open(opt.workload, 0);
        const SpanLog::Id pass = spans.open("pooled pass", root);
        const HostSnapshot before = HostSnapshot::take();
        const std::vector<TraceResult> pooled =
            run_cases(&rep.callMs, &spans, pass);
        rep.notePass(before, HostSnapshot::take());
        spans.close(pass);
        rep.noteResults(pooled);
        out.attempted += pooled.size();
        out.failed += bad_replays(pooled, nullptr);

        const SpanLog::Id single = spans.open("single-thread", root);
        driveReplays(cases, pooled, rep, spans, single, out);
        spans.close(single);
        finishTraced(opt, rep, spans, root, out);
        return out;
    }

    std::vector<std::vector<std::uint8_t>> reference;
    const PassLog log = timePasses(opt, out, [&](std::size_t) {
        const auto start = Clock::now();
        const std::vector<TraceResult> results =
            run_cases(nullptr, nullptr, 0);
        Pass p = timedPass(start, results);
        p.failed = bad_replays(results,
                               reference.empty() ? nullptr : &reference);
        if (reference.empty())
            reference = encodeAll(results);
        return p;
    });
    addEndToEnd(out, log, setups, static_cast<double>(peakRssKb()));
    return out;
}

// --- warm-replay ------------------------------------------------------------

Outcome
runWarmReplay(const Options &opt)
{
    namespace fs = std::filesystem;
    Outcome out;
    sched::ensureGlobalPool();
    const std::vector<SynthCall> grid = synthGrid(opt.seed, opt.shortMode);
    const std::vector<SynthPoint> points = gridPoints(grid);
    const std::string store = opt.workDir + "/warm-store";
    sched::BlobCache &cache = sweepCache();

    // Set-up: fill a fresh disk store with one cold pass.
    std::vector<std::vector<std::uint8_t>> reference;
    const std::vector<double> setups =
        timeSetups(kWarmSetupRepeats, [&](int) {
            fs::remove_all(store);
            cache.setDir(store);
            cache.clearMemory();
            const std::vector<SynthResult> cold = runGrid(grid);
            cache.clearMemory();
            out.attempted += points.size();
            out.failed += badPoints(points, cold, nullptr);
            reference = encodeAll(cold);
        });

    // A pass: every point is a disk hit (or a memory hit for a point
    // the grid repeats); any miss means a recomputation and counts as
    // a failed operation.
    auto warm_pass = [&](std::vector<double> *call_ms, SpanLog *spans,
                         SpanLog::Id parent,
                         std::vector<SynthResult> &results) {
        cache.clearMemory();
        const auto misses = cache.stats().misses;
        const auto start = Clock::now();
        results = spans ? gridWithSpans(grid, *call_ms, *spans, parent)
                        : runGrid(grid);
        Pass p = timedPass(start, results);
        p.failed = badPoints(points, results, &reference) +
                   (cache.stats().misses - misses);
        return p;
    };

    if (opt.traced) {
        LayerReport rep;
        SpanLog spans;
        const SpanLog::Id root = spans.open(opt.workload, 0);
        const SpanLog::Id pass = spans.open("pooled pass", root);
        std::vector<SynthResult> results;
        const HostSnapshot before = HostSnapshot::take();
        const Pass p = warm_pass(&rep.callMs, &spans, pass, results);
        rep.notePass(before, HostSnapshot::take());
        spans.close(pass);
        rep.noteResults(results);
        out.attempted += p.attempted;
        out.failed += p.failed;

        // Single-threaded, per unique point: the traced path times key,
        // disk lookup and decode separately; the untraced path is one
        // runSim through the cache.
        const SpanLog::Id single = spans.open("single-thread", root);
        const std::vector<std::size_t> unique = uniquePoints(points);
        cache.clearMemory();
        for (std::size_t i : unique) {
            const SynthPoint &pt = points[i];
            const auto t0 = Clock::now();
            const std::uint64_t key =
                sweepKey(pt.config, pt.channels, pt.workload);
            const auto t1 = Clock::now();
            const auto payload = cache.lookup(key);
            const auto t2 = Clock::now();
            SynthResult decoded;
            const bool ok = payload && decodeSynthResult(*payload, decoded);
            const auto t3 = Clock::now();
            spans.add(grid[pt.call].label, single, t0, t3,
                      {{"key_ns", static_cast<double>(nsBetween(t0, t1))},
                       {"lookup_ns", static_cast<double>(nsBetween(t1, t2))},
                       {"decode_ns", static_cast<double>(nsBetween(t2, t3))}});
            rep.diskLookupUs.push_back(
                static_cast<double>(nsBetween(t1, t2)) / 1e3);
            rep.tracedSeconds += msBetween(t0, t3) / 1e3;
            ++out.attempted;
            if (!ok || resultBytes(decoded) != reference[i])
                ++out.failed;
        }
        cache.clearMemory();
        for (std::size_t i : unique) {
            const SynthPoint &pt = points[i];
            const auto t0 = Clock::now();
            const RunResult run = runSim({.config = &pt.config,
                                          .channels = pt.channels,
                                          .workload = &pt.workload,
                                          .useCache = true});
            const auto t1 = Clock::now();
            rep.untracedSeconds += msBetween(t0, t1) / 1e3;
            rep.pointMs.push_back(msBetween(t0, t1));
            ++out.attempted;
            if (!run.fromCache || resultBytes(run.synth) != reference[i])
                ++out.failed;
        }
        spans.close(single);
        timeCodec(points, results, rep);
        finishTraced(opt, rep, spans, root, out);
    } else {
        const PassLog log = timePasses(opt, out, [&](std::size_t) {
            std::vector<SynthResult> results;
            return warm_pass(nullptr, nullptr, 0, results);
        });
        addEndToEnd(out, log, setups, static_cast<double>(peakRssKb()));
    }
    cache.setDir("");
    cache.clearMemory();
    fs::remove_all(store);
    return out;
}

// --- remote-loopback --------------------------------------------------------

bool
runRemoteLoopback(const Options &opt, Outcome &out, std::string &error)
{
    sched::ensureGlobalPool();
    Daemon daemon;
    RemoteConfig remote;
    // Every point must reach the daemon: no client-side cache.
    remote.useLocalCache = false;
    TraceCase lu;

    // Set-up: generate the LU trace, start the daemon, and complete one
    // round trip (connect, handshake, one tiny point). The daemon of an
    // earlier repeat is stopped outside the timed region.
    std::vector<double> setups;
    for (int k = 0; k < kDaemonSetupRepeats; ++k) {
        clearRemoteConfig();
        daemon.stop();
        const auto start = Clock::now();
        lu = shardedLuCase(opt.seed);
        std::string endpoint;
        net::Endpoint ep;
        if (!daemon.start(opt.ftdPath, endpoint, error) ||
            !net::parseEndpoint(endpoint, ep, error))
            return false;
        remote.endpoints = {ep};
        setRemoteConfig(remote);
        const RemoteStats before = remoteLifetimeStats();
        const NocUnderTest ping{"ping", NocConfig::hoplite(2), 1};
        injectionSweep(ping, TrafficPattern::random, {0.5}, 4,
                       splitmix64(opt.seed) + static_cast<unsigned>(k));
        if (minus(remoteLifetimeStats(), before).pointsRemote != 1) {
            error = "the daemon did not answer the first point";
            clearRemoteConfig();
            return false;
        }
        setups.push_back(secondsSince(start));
    }

    // Local counterparts the remote results must equal.
    const NocConfig &lu_config = lu.configs.front();
    const TraceResult lu_local = replayOnce(lu_config, lu.trace);
    const std::vector<std::uint8_t> lu_bytes = resultBytes(lu_local);
    const Cycle slice = lu_local.completion / kShardSlices + 1;
    const RunRequest sharded_request{
        .config = &lu_config,
        .trace = &lu.trace,
        .sim = {.maxCycles = kReplayMaxCycles}};

    auto local_grid = [&](const std::vector<SynthCall> &grid,
                          std::vector<double> *call_ms, SpanLog *spans,
                          SpanLog::Id parent) {
        clearRemoteConfig();
        sweepCache().clearMemory();
        std::vector<SynthResult> results =
            spans ? gridWithSpans(grid, *call_ms, *spans, parent)
                  : runGrid(grid);
        setRemoteConfig(remote);
        return results;
    };

    // A pass: the reduced sweep and the sharded replay, under a seed
    // of its own so that no point is a daemon cache hit.
    auto remote_pass = [&](std::size_t index, std::vector<double> *call_ms,
                           SpanLog *spans, SpanLog::Id parent,
                           double &sharded_s, HostSnapshot *timed_end) {
        const std::vector<SynthCall> grid =
            remoteGrid(remotePassSeed(opt.seed, index));
        const std::vector<SynthPoint> points = gridPoints(grid);
        const RemoteStats before = remoteLifetimeStats();
        const auto start = Clock::now();
        const std::vector<SynthResult> results =
            spans ? gridWithSpans(grid, *call_ms, *spans, parent)
                  : runGrid(grid);
        const auto sharded_start = Clock::now();
        const RunResult sharded = runShardedSim(sharded_request, slice);
        const auto end = Clock::now();
        if (timed_end)
            *timed_end = HostSnapshot::take();
        if (spans)
            spans->add("sharded " + lu.trace.name, parent, sharded_start,
                       end);
        sharded_s = msBetween(sharded_start, end) / 1e3;

        Pass p = timedPass(start, results);
        p.wall = msBetween(start, end) / 1e3;
        p.routerCycles += routerCycles(sharded.trace);
        const RemoteStats net = minus(remoteLifetimeStats(), before);
        const std::vector<std::vector<std::uint8_t>> local =
            encodeAll(local_grid(grid, nullptr, nullptr, 0));
        p.attempted += net.slicesRemote + net.slicesFallback;
        p.failed = badPoints(points, results, &local) +
                   net.pointsFallback + net.slicesFallback +
                   net.remoteCacheHits +
                   (replayOk(sharded.trace, lu.trace) &&
                            resultBytes(sharded.trace) == lu_bytes
                        ? 0
                        : 1);
        return p;
    };

    if (opt.traced) {
        LayerReport rep;
        SpanLog spans;
        const SpanLog::Id root = spans.open(opt.workload, 0);
        const SpanLog::Id pass = spans.open("remote pass", root);
        std::vector<double> remote_ms;
        double sharded_s = 0.0;
        const HostSnapshot before = HostSnapshot::take();
        HostSnapshot after;
        const Pass p =
            remote_pass(0, &remote_ms, &spans, pass, sharded_s, &after);
        rep.notePass(before, after);
        spans.close(pass);
        out.attempted += p.attempted;
        out.failed += p.failed;
        rep.callMs = remote_ms;

        // The same work run locally: the remote overheads.
        const std::vector<SynthCall> grid =
            remoteGrid(remotePassSeed(opt.seed, 0));
        const std::vector<SynthPoint> points = gridPoints(grid);
        const SpanLog::Id local = spans.open("local pass", root);
        std::vector<double> local_ms;
        const std::vector<SynthResult> local_results =
            local_grid(grid, &local_ms, &spans, local);
        const auto lu_start = Clock::now();
        replayOnce(lu_config, lu.trace);
        const double lu_s = secondsSince(lu_start);
        spans.close(local);
        std::vector<double> overheads;
        for (std::size_t i = 0; i < remote_ms.size(); ++i)
            overheads.push_back(remote_ms[i] - local_ms[i]);
        rep.sweepOverheadMs = mean(overheads);
        rep.sliceOverheadMs =
            ratio((sharded_s - lu_s) * 1e3,
                  static_cast<double>(rep.net.slicesRemote +
                                      rep.net.slicesFallback));
        rep.noteResults(local_results);
        rep.noteResults(std::vector<TraceResult>{lu_local});

        // Single-threaded layers of the same points and replay, and
        // checkpoint capture/restore at the slice boundaries.
        const SpanLog::Id single = spans.open("single-thread", root);
        driveSynthPoints(grid, points, local_results, rep, spans, single,
                         out);
        driveReplays({lu}, {lu_local}, rep, spans, single, out);
        const TraceResult sliced =
            driveSlicedReplay(lu_config, lu.trace, kReplayMaxCycles, slice,
                              rep.checkpoint, spans, single);
        spans.close(single);
        ++out.attempted;
        if (rep.checkpoint.failures != 0 || resultBytes(sliced) != lu_bytes)
            ++out.failed;
        timeCodec(points, local_results, rep);
        finishTraced(opt, rep, spans, root, out);
    } else {
        const PassLog log = timePasses(opt, out, [&](std::size_t index) {
            double sharded_s = 0.0;
            return remote_pass(index, nullptr, nullptr, 0, sharded_s,
                               nullptr);
        });
        const double daemon_kb = static_cast<double>(daemon.stop());
        addEndToEnd(out, log, setups,
                    static_cast<double>(peakRssKb()) + daemon_kb);
    }
    clearRemoteConfig();
    return true;
}

} // namespace perfbench
