/**
 * @file
 * The telemetry trace sink: per-thread event logs behind a single
 * process-global installation point.
 *
 * Cost model (the whole point of this layer):
 *  - *No sink installed*: the simulators' stepping cores are compiled
 *    in a telemetry-free instantiation (see Network::stepImpl); the
 *    only residual cost is one relaxed atomic load per step() call.
 *  - *Sink installed*: each simulation thread appends POD TraceEvents
 *    to its own SPSC ring (wait-free, drop-counted on overflow) and
 *    bumps dense per-kind / per-link counters. No locks, no
 *    allocation steady-state, no cross-thread traffic on the hot
 *    path.
 *
 * Counters are maintained outside the ring, so aggregate metrics stay
 * exact even when the ring drops trace records under overload; drops
 * only cost completeness of the exported Chrome trace.
 *
 * Consumer-side methods (totals, drains, export) require producers to
 * be quiescent: call them after the simulation loop returned, or
 * after parallelMap joined its workers.
 */

#ifndef FT_TELEMETRY_SINK_HPP
#define FT_TELEMETRY_SINK_HPP

#include <array>
#include <atomic>
#include <memory>
#include <string>
#include <vector>

#include "common/thread_annotations.hpp"
#include "telemetry/events.hpp"
#include "telemetry/ring_buffer.hpp"

namespace fasttrack::telemetry {

/** Knobs of one telemetry session. */
struct TelemetryConfig
{
    /** Artifact output directory; empty = in-memory only (counters
     *  and rings still collected, nothing written). */
    std::string dir;
    /** Prefix for every artifact file name (e.g. a config label). */
    std::string filePrefix;
    /** Metrics snapshot period in simulated cycles. */
    Cycle epoch = 1024;
    /** Per-thread trace-ring capacity in events (rounded up to a
     *  power of two). */
    std::size_t ringCapacity = std::size_t{1} << 16;
    /** Record TraceEvents into the rings; counters are always on. */
    bool traceEvents = true;
};

/** Dense per-kind event totals. */
struct KindCounts
{
    std::array<std::uint64_t, kNumEventKinds> byKind{};

    std::uint64_t of(EventKind k) const
    {
        return byKind[static_cast<std::size_t>(k)];
    }
};

/**
 * One thread's private telemetry state: an SPSC trace ring plus dense
 * counters. emit() is the single producer-side entry point.
 */
class ThreadLog
{
  public:
    ThreadLog(std::uint32_t index, std::size_t ring_capacity,
              bool trace_events)
        : ring_(ring_capacity), traceEvents_(trace_events), index_(index)
    {
    }

    /** Record one event (hot path; wait-free). */
    void emit(EventKind kind, Cycle cycle, NodeId node,
              std::uint8_t port, std::uint64_t packet,
              std::uint16_t aux)
    {
        ++counts_.byKind[static_cast<std::size_t>(kind)];
        if (kind == EventKind::route || kind == EventKind::expressHop) {
            const std::size_t idx =
                static_cast<std::size_t>(node) * 4 + port;
            if (idx >= linkCounts_.size())
                growLinkCounts(idx);
            ++linkCounts_[idx];
        }
        if (traceEvents_)
            ring_.tryPush(TraceEvent{cycle, packet, node, aux, kind,
                                     port});
    }

    std::uint32_t index() const { return index_; }
    const KindCounts &counts() const { return counts_; }
    /** Per-link traversal counts, indexed node * 4 + OutPort. */
    const std::vector<std::uint64_t> &linkCounts() const
    {
        return linkCounts_;
    }
    SpscRing<TraceEvent> &ring() { return ring_; }
    const SpscRing<TraceEvent> &ring() const { return ring_; }

  private:
    void growLinkCounts(std::size_t idx)
    {
        std::size_t want = linkCounts_.empty() ? 256 : linkCounts_.size();
        while (want <= idx)
            want *= 2;
        linkCounts_.resize(want, 0);
    }

    SpscRing<TraceEvent> ring_;
    KindCounts counts_;
    std::vector<std::uint64_t> linkCounts_;
    bool traceEvents_;
    std::uint32_t index_;
};

/**
 * The installable sink. Owns one ThreadLog per producing thread
 * (created lazily on first emit from that thread) and the host-side
 * phase spans recorded by PhaseTimer.
 */
class TraceSink
{
  public:
    /** A wall-clock span of host work (e.g. one parallelMap sweep),
     *  in microseconds relative to the sink's construction. */
    struct PhaseSpan
    {
        std::string name;
        std::uint64_t startUs = 0;
        std::uint64_t durationUs = 0;
        std::uint32_t thread = 0;
    };

    explicit TraceSink(TelemetryConfig config);
    ~TraceSink();
    TraceSink(const TraceSink &) = delete;
    TraceSink &operator=(const TraceSink &) = delete;

    const TelemetryConfig &config() const { return config_; }

    /** The calling thread's log, registering it on first use. */
    ThreadLog &local();

    /** Record a host-side phase span (taken by PhaseTimer). */
    void recordPhase(const std::string &name, std::uint64_t start_us,
                     std::uint64_t duration_us);

    /** Microseconds of host wall-clock since sink construction
     *  (feeds PhaseTimer; never feeds simulation results). */
    std::uint64_t hostNowUs() const;

    // --- consumer side: producers must be quiescent ---
    std::size_t threadCount() const;
    const ThreadLog &threadLog(std::size_t i) const;
    ThreadLog &threadLog(std::size_t i);
    /** Per-link totals summed over threads (node * 4 + port). */
    std::vector<std::uint64_t> totalLinkCounts() const;
    std::uint64_t totalDropped() const;
    std::vector<PhaseSpan> phases() const;

  private:
    TelemetryConfig config_;
    /** Identity for thread_local re-binding (unique per sink ever
     *  constructed, so a stale cached pointer can never match). */
    std::uint64_t epochId_;
    std::uint64_t startUs_;
    mutable Mutex mutex_;
    std::vector<std::unique_ptr<ThreadLog>> logs_ FT_GUARDED_BY(mutex_);
    std::vector<PhaseSpan> phases_ FT_GUARDED_BY(mutex_);

    friend void install(TraceSink *sink);
    friend void uninstall(TraceSink *sink);
};

/** Install @p sink as the process-global telemetry sink. Panics if
 *  another sink is already installed (sessions must not overlap). */
void install(TraceSink *sink);

/** Remove @p sink; panics if it is not the installed one. */
void uninstall(TraceSink *sink);

/** The installed sink, or nullptr (one relaxed atomic load). */
TraceSink *installed();

/**
 * RAII host-side phase timer: measures the wall-clock span of a scope
 * (e.g. one parallelMap sweep) and records it on the installed sink.
 * No-op when no sink is installed. Wall-clock never feeds simulation
 * results — spans only appear in exported artifacts.
 */
class PhaseTimer
{
  public:
    explicit PhaseTimer(std::string name)
        : sink_(installed()), name_(std::move(name)),
          startUs_(sink_ ? sink_->hostNowUs() : 0)
    {
    }
    ~PhaseTimer()
    {
        if (sink_)
            sink_->recordPhase(name_, startUs_,
                               sink_->hostNowUs() - startUs_);
    }
    PhaseTimer(const PhaseTimer &) = delete;
    PhaseTimer &operator=(const PhaseTimer &) = delete;

  private:
    TraceSink *sink_;
    std::string name_;
    std::uint64_t startUs_;
};

/**
 * Telemetry emission, the one sanctioned way to emit: @p enabled must
 * be a compile-time constant (the stepping core's HasTelem parameter),
 * so the disabled instantiation contains no telemetry code at all.
 */
#define FT_TELEM(enabled, log_ptr, ...)                                 \
    do {                                                                \
        if constexpr (enabled)                                          \
            (log_ptr)->emit(__VA_ARGS__);                               \
    } while (0)

} // namespace fasttrack::telemetry

#endif // FT_TELEMETRY_SINK_HPP
