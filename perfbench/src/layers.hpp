/**
 * @file
 * Hand-driven runs for the traced mode. Each drives one point the way
 * runSim does -- makeNoc, then the workload driver's tick() and the
 * device's step() until done -- and times every call from here, so the
 * library carries no instrumentation. Time accumulates per layer and
 * per phase (inject or drain); one span is recorded per point and per
 * phase, never per cycle.
 */

#ifndef PERFBENCH_LAYERS_HPP
#define PERFBENCH_LAYERS_HPP

#include <cstdint>
#include <vector>

#include "report.hpp"
#include "sim/simulation.hpp"

namespace perfbench {

using namespace fasttrack;

/** Host time per layer, summed over the points driven. */
struct LayerTotals
{
    /** SyntheticInjector::tick before / after generated()==budget(). */
    double injectNs = 0.0;
    double injectDrainNs = 0.0;
    /** TraceReplayer::tick. */
    double replayNs = 0.0;
    /** NocDevice::step during the inject and drain phases. */
    double stepNs = 0.0;
    double stepDrainNs = 0.0;
    /** makeNoc. */
    double buildNs = 0.0;
    /** Simulated cycles x PEs driven. */
    double routerCycles = 0.0;
    /** Trace messages delivered. */
    std::uint64_t messages = 0;
};

/** Drive one synthetic point; the result matches runSim's. */
SynthResult drivePoint(const NocConfig &config, std::uint32_t channels,
                       const SyntheticWorkload &workload,
                       LayerTotals &totals, SpanLog &spans,
                       SpanLog::Id parent);

/** Drive one replay; the result matches runSim's. */
TraceResult driveReplay(const NocConfig &config, const Trace &trace,
                        Cycle max_cycles, LayerTotals &totals,
                        SpanLog &spans, SpanLog::Id parent);

/** Per-boundary costs of checkpoint capture and restore. */
struct CheckpointTimes
{
    std::vector<double> captureUs;
    std::vector<double> encodeUs;
    std::vector<double> decodeUs;
    std::vector<double> restoreUs;
    std::vector<double> snapshotBytes;
    /** Boundaries whose snapshot failed to capture, decode or restore. */
    std::uint64_t failures = 0;
};

/**
 * Replay @p trace on @p config, and every @p slice_cycles cycles move
 * the run to a fresh device: captureState, encodeSnapshot,
 * decodeSnapshot, then restoreState into a new device and replayer.
 * The result must equal the uninterrupted replay.
 */
TraceResult driveSlicedReplay(const NocConfig &config, const Trace &trace,
                              Cycle max_cycles, Cycle slice_cycles,
                              CheckpointTimes &times, SpanLog &spans,
                              SpanLog::Id parent);

} // namespace perfbench

#endif // PERFBENCH_LAYERS_HPP
