/**
 * @file
 * Measurement plumbing of the benchmark: a steady clock, order
 * statistics, host resource readings, the metric list that becomes the
 * result line, and the in-memory span log of the traced run.
 */

#ifndef PERFBENCH_REPORT_HPP
#define PERFBENCH_REPORT_HPP

#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/** Seconds elapsed since @p start. */
double secondsSince(Clock::time_point start);

/** Nanoseconds between two clock readings. */
inline std::int64_t
nsBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(b - a)
        .count();
}

/** Linear-interpolated quantile (q in [0,1]) of @p values; 0 when
 *  empty. */
double quantile(std::vector<double> values, double q);
inline double
median(std::vector<double> values)
{
    return quantile(std::move(values), 0.5);
}

/** Mean of @p values; 0 when empty. */
double mean(const std::vector<double> &values);

/** @p num / @p den, or 0 when @p den is 0 (keeps the JSON finite). */
double ratio(double num, double den);

/** Peak resident set of this process so far, in KiB. */
long peakRssKb();
/** User + system CPU seconds this process has consumed so far. */
double cpuSeconds();

/** Named measurements in the order they are printed. */
class Metrics
{
  public:
    struct Entry
    {
        std::string name;
        double value = 0.0;
        std::string unit;
    };

    void add(std::string name, double value, std::string unit);
    const std::vector<Entry> &entries() const { return entries_; }

    /** The result line: {"correct", "attempted", "failed",
     *  "metrics": {name: {"value", "unit"}}}. */
    std::string json(bool correct, std::uint64_t attempted,
                     std::uint64_t failed) const;

  private:
    std::vector<Entry> entries_;
};

/**
 * Spans of the traced run, kept in memory and written once at exit.
 * Each span has a name, start, end and parent (0 = root) plus numeric
 * attributes; the file is Chrome trace-event JSON, so it loads in
 * chrome://tracing or Perfetto, with the parent link in "args".
 */
class SpanLog
{
  public:
    using Id = std::uint32_t;
    using Args = std::vector<std::pair<std::string, double>>;

    SpanLog() : origin_(Clock::now()) {}

    /** Open a span starting now under @p parent. */
    Id open(std::string name, Id parent);
    /** Close span @p id now, attaching @p args. */
    void close(Id id, Args args = {});
    /** Record a span whose interval is already known. */
    Id add(std::string name, Id parent, Clock::time_point start,
           Clock::time_point end, Args args = {});

    /** Write every span to @p path; false on I/O failure. */
    bool write(const std::string &path) const;

  private:
    struct Span
    {
        std::string name;
        Id parent = 0;
        std::int64_t startNs = 0;
        std::int64_t endNs = 0;
        Args args;
    };

    Clock::time_point origin_;
    std::vector<Span> spans_;
};

} // namespace perfbench

#endif // PERFBENCH_REPORT_HPP
