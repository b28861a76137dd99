/**
 * @file
 * Named-metric registry with per-epoch snapshots: counters (monotonic
 * totals), gauges (instantaneous values) and histograms (latency-like
 * distributions), all keyed by ordered string names so every export
 * is deterministic. A TelemetrySession populates one registry per run
 * from sink counters and device stats; snapshot() freezes the current
 * values as one epoch row of the metrics CSV time series.
 */

#ifndef FT_TELEMETRY_METRICS_HPP
#define FT_TELEMETRY_METRICS_HPP

#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <vector>

#include "common/stats.hpp"
#include "common/types.hpp"

namespace fasttrack::telemetry {

/**
 * Registry of named metrics. Not thread-safe: a registry belongs to
 * the session thread; worker-thread data reaches it only via the
 * sink's merged totals after workers quiesce.
 */
class MetricsRegistry
{
  public:
    /** One frozen row of the time series. */
    struct Epoch
    {
        Cycle cycle = 0;
        /** Metric name -> value at snapshot time (counters and
         *  gauges; histograms are summarized only at export). */
        std::map<std::string, double> values;
    };

    /** Monotonic counter slot, created at first use. */
    std::uint64_t &counter(const std::string &name);
    /** Instantaneous gauge slot, created at first use. */
    double &gauge(const std::string &name);
    /** Distribution slot, created at first use. */
    Histogram &histogram(const std::string &name);

    std::uint64_t counterValue(const std::string &name) const;

    /** Freeze the current counter/gauge values as the epoch row
     *  ending at simulated cycle @p now. */
    void snapshot(Cycle now);

    const std::vector<Epoch> &epochs() const { return epochs_; }

    /**
     * Write the epoch time series as CSV: one row per snapshot, one
     * column per metric (union over all epochs; absent = 0).
     */
    void writeCsv(std::ostream &os) const;

    /**
     * Write the end-of-run summary as CSV: every counter and gauge's
     * final value plus count/mean/p50/p95/p99/max per histogram
     * (interpolated percentiles; well-defined for empty and
     * single-sample histograms, never NaN).
     */
    void writeSummary(std::ostream &os) const;

    bool empty() const
    {
        return counters_.empty() && gauges_.empty() && hists_.empty();
    }

  private:
    std::map<std::string, std::uint64_t> counters_;
    std::map<std::string, double> gauges_;
    std::map<std::string, Histogram> hists_;
    std::vector<Epoch> epochs_;
};

/** Publish every counter of @p set (a counter set, see
 *  common/counters.hpp) as the counter <prefix><name>. */
template <typename Set>
void
exportCounters(MetricsRegistry &metrics, const std::string &prefix,
               const Set &set)
{
    for (const auto &counter : Set::kCounters)
        metrics.counter(prefix + counter.name) = set.*counter.field;
}

} // namespace fasttrack::telemetry

#endif // FT_TELEMETRY_METRICS_HPP
