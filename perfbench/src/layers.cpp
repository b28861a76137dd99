#include "layers.hpp"

#include <memory>
#include <string>

#include "sim/checkpoint.hpp"
#include "traffic/injector.hpp"
#include "traffic/trace_replay.hpp"

namespace perfbench {

namespace {

std::string
pointName(const NocConfig &config, std::uint32_t channels,
          const SyntheticWorkload &workload)
{
    return config.describe() + " x" + std::to_string(channels) + " " +
           std::string(toString(workload.pattern)) + " @" +
           std::to_string(workload.injectionRate);
}

/** makeNoc, timed into @p totals. */
std::unique_ptr<NocDevice>
buildNoc(const NocConfig &config, std::uint32_t channels,
         LayerTotals &totals)
{
    const auto start = Clock::now();
    std::unique_ptr<NocDevice> noc = makeNoc(config, channels);
    totals.buildNs += static_cast<double>(nsBetween(start, Clock::now()));
    return noc;
}

} // namespace

SynthResult
drivePoint(const NocConfig &config, std::uint32_t channels,
           const SyntheticWorkload &workload, LayerTotals &totals,
           SpanLog &spans, SpanLog::Id parent)
{
    const SpanLog::Id point =
        spans.open(pointName(config, channels, workload), parent);
    std::unique_ptr<NocDevice> noc = buildNoc(config, channels, totals);
    SyntheticInjector injector(*noc, workload);
    const Cycle start = noc->now();
    const std::uint64_t budget = injector.budget();

    // Phase 0 injects; phase 1 drains once every packet is generated.
    const char *const phase_names[2] = {"inject", "drain"};
    std::int64_t tick_ns[2] = {0, 0};
    std::int64_t step_ns[2] = {0, 0};
    Cycle phase_cycles[2] = {0, 0};
    int phase = injector.generated() == budget ? 1 : 0;
    Clock::time_point phase_start = Clock::now();
    Clock::time_point t = phase_start;
    auto close_phase = [&] {
        spans.add(phase_names[phase], point, phase_start, t,
                  {{"tick_ns", static_cast<double>(tick_ns[phase])},
                   {"step_ns", static_cast<double>(step_ns[phase])},
                   {"cycles", static_cast<double>(phase_cycles[phase])}});
    };
    while (!injector.done() && noc->now() - start < kDefaultMaxCycles) {
        if (phase == 0 && injector.generated() == budget) {
            close_phase();
            phase = 1;
            phase_start = t;
        }
        injector.tick();
        const auto ticked = Clock::now();
        noc->step();
        const auto stepped = Clock::now();
        tick_ns[phase] += nsBetween(t, ticked);
        step_ns[phase] += nsBetween(ticked, stepped);
        ++phase_cycles[phase];
        t = stepped;
    }
    close_phase();

    SynthResult result;
    result.stats = noc->statsSnapshot();
    result.cycles = noc->now() - start;
    result.pes = noc->config().pes();
    result.offeredRate = workload.injectionRate;
    result.completed = injector.done();

    totals.injectNs += static_cast<double>(tick_ns[0]);
    totals.injectDrainNs += static_cast<double>(tick_ns[1]);
    totals.stepNs += static_cast<double>(step_ns[0]);
    totals.stepDrainNs += static_cast<double>(step_ns[1]);
    totals.routerCycles += static_cast<double>(result.cycles) * result.pes;
    spans.close(point, {{"cycles", static_cast<double>(result.cycles)}});
    return result;
}

TraceResult
driveReplay(const NocConfig &config, const Trace &trace, Cycle max_cycles,
            LayerTotals &totals, SpanLog &spans, SpanLog::Id parent)
{
    const SpanLog::Id point =
        spans.open(trace.name + " on " + config.describe(), parent);
    std::unique_ptr<NocDevice> noc = buildNoc(config, 1, totals);
    TraceReplayer replayer(*noc, trace);
    const Cycle start = noc->now();

    std::int64_t tick_ns = 0;
    std::int64_t step_ns = 0;
    const Clock::time_point phase_start = Clock::now();
    Clock::time_point t = phase_start;
    while (!replayer.finished() && noc->now() - start < max_cycles) {
        replayer.tick();
        const auto ticked = Clock::now();
        noc->step();
        const auto stepped = Clock::now();
        tick_ns += nsBetween(t, ticked);
        step_ns += nsBetween(ticked, stepped);
        t = stepped;
    }
    const Cycle cycles = noc->now() - start;
    spans.add("replay", point, phase_start, t,
              {{"tick_ns", static_cast<double>(tick_ns)},
               {"step_ns", static_cast<double>(step_ns)},
               {"cycles", static_cast<double>(cycles)}});

    TraceResult result;
    result.stats = noc->statsSnapshot();
    result.completion = replayer.lastDelivery();
    result.pes = noc->config().pes();
    result.completed = replayer.finished();

    totals.replayNs += static_cast<double>(tick_ns);
    totals.stepNs += static_cast<double>(step_ns);
    totals.routerCycles += static_cast<double>(cycles) * result.pes;
    totals.messages += replayer.deliveredMessages();
    spans.close(point, {{"cycles", static_cast<double>(cycles)}});
    return result;
}

TraceResult
driveSlicedReplay(const NocConfig &config, const Trace &trace,
                  Cycle max_cycles, Cycle slice_cycles,
                  CheckpointTimes &times, SpanLog &spans,
                  SpanLog::Id parent)
{
    const SpanLog::Id run =
        spans.open(trace.name + " sliced on " + config.describe(), parent);
    std::unique_ptr<NocDevice> noc = makeNoc(config);
    auto replayer = std::make_unique<TraceReplayer>(*noc, trace);
    Cycle next_cut = slice_cycles;
    while (!replayer->finished() && noc->now() < max_cycles) {
        replayer->tick();
        noc->step();
        if (replayer->finished() || noc->now() != next_cut)
            continue;
        next_cut += slice_cycles;

        const auto t0 = Clock::now();
        Snapshot snap;
        snap.kind = SnapshotKind::trace;
        const bool captured = noc->captureState(snap.engine) &&
                              replayer->captureState(snap.replay);
        const auto t1 = Clock::now();
        const std::vector<std::uint8_t> bytes = encodeSnapshot(snap);
        const auto t2 = Clock::now();
        Snapshot back;
        const bool decoded = decodeSnapshot(bytes, back);
        const auto t3 = Clock::now();
        std::unique_ptr<NocDevice> fresh = makeNoc(config);
        auto fresh_replayer = std::make_unique<TraceReplayer>(*fresh, trace);
        const auto t4 = Clock::now();
        const bool restored = decoded &&
                              fresh->restoreState(back.engine) &&
                              fresh_replayer->restoreState(back.replay);
        const auto t5 = Clock::now();
        if (!captured || !restored) {
            ++times.failures;
            continue;
        }
        times.captureUs.push_back(static_cast<double>(nsBetween(t0, t1)) / 1e3);
        times.encodeUs.push_back(static_cast<double>(nsBetween(t1, t2)) / 1e3);
        times.decodeUs.push_back(static_cast<double>(nsBetween(t2, t3)) / 1e3);
        times.restoreUs.push_back(static_cast<double>(nsBetween(t4, t5)) / 1e3);
        times.snapshotBytes.push_back(static_cast<double>(bytes.size()));
        spans.add("checkpoint", run, t0, t5,
                  {{"cycle", static_cast<double>(noc->now())},
                   {"bytes", static_cast<double>(bytes.size())}});
        // The old replayer goes first: it holds the old device.
        replayer = std::move(fresh_replayer);
        noc = std::move(fresh);
    }

    TraceResult result;
    result.stats = noc->statsSnapshot();
    result.completion = replayer->lastDelivery();
    result.pes = noc->config().pes();
    result.completed = replayer->finished();
    spans.close(run);
    return result;
}

} // namespace perfbench
