/**
 * @file
 * Lightweight statistics primitives used by the NoC simulator: running
 * scalar summaries and integer histograms with exact percentiles.
 */

#ifndef FT_COMMON_STATS_HPP
#define FT_COMMON_STATS_HPP

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace fasttrack {

/**
 * Running summary of a scalar sample stream: count, mean, min, max and
 * variance via Welford's algorithm (numerically stable single pass).
 */
class RunningStat
{
  public:
    void add(double x);
    void merge(const RunningStat &other);
    void reset();

    std::uint64_t count() const { return count_; }
    double mean() const { return count_ ? mean_ : 0.0; }
    double min() const { return count_ ? min_ : 0.0; }
    double max() const { return count_ ? max_ : 0.0; }
    double variance() const;
    double stddev() const;
    double sum() const { return mean_ * static_cast<double>(count_); }

  private:
    std::uint64_t count_ = 0;
    double mean_ = 0.0;
    double m2_ = 0.0;
    double min_ = 0.0;
    double max_ = 0.0;
};

/**
 * Exact histogram over non-negative integer samples (e.g. packet
 * latencies in cycles). Its one stored form is a vector of
 * (value, count) bins sorted by value. A histogram that is being
 * written (a live device's stats) also keeps a dense counter array
 * for small values, so the hot-loop add() costs one array increment;
 * the first read merges those counters into the bins. A copy holds
 * only the sorted bins: it merges the source's pending counters
 * without touching the source. Supports exact percentiles and
 * log-spaced bucketing for printing.
 */
class Histogram
{
  public:
    /** One (value, count) pair; bins() lists them ascending by value,
     *  each value once, no count zero. */
    using Bin = std::pair<std::uint64_t, std::uint64_t>;

    Histogram() = default;
    Histogram(const Histogram &other);
    Histogram &operator=(const Histogram &other);
    /** A moved-from histogram is empty. */
    Histogram(Histogram &&other) noexcept;
    Histogram &operator=(Histogram &&other) noexcept;

    void add(std::uint64_t value, std::uint64_t weight = 1)
    {
        count_ += weight;
        sum_ += value * weight;
        if (value < kDenseCap) {
            if (value >= dense_.size())
                growDense(value);
            dense_[value] += weight;
            dirty_ = true;
            return;
        }
        addSparse(value, weight);
    }

    /** Add every (value, count) pair of @p bins as add(value, count)
     *  would: any order, repeated values summed. */
    void addBins(std::vector<Bin> bins);

    void merge(const Histogram &other);
    void reset();

    std::uint64_t count() const { return count_; }
    double mean() const;
    std::uint64_t min() const;
    std::uint64_t max() const;

    /** Exact p-th percentile (0 <= p <= 100) by counting. */
    std::uint64_t percentile(double p) const;

    /**
     * Linearly interpolated p-th percentile (numpy's "linear" /
     * Hyndman-Fan type 7): the continuous rank p/100 * (count - 1)
     * interpolated between the neighbouring samples. Well-defined at
     * every edge — an empty histogram yields 0.0 and a single sample
     * yields that sample — so exporters can emit it unconditionally
     * without producing NaN. @p p outside [0, 100] is clamped.
     */
    double percentileLerp(double p) const;

    /**
     * Bucketize into @p buckets log2-spaced bins [1,2), [2,4), ...
     * Returns (bucket upper bound, count) pairs covering all samples.
     */
    std::vector<std::pair<std::uint64_t, std::uint64_t>>
    logBuckets() const;

    /** The sorted (value, count) bins, ascending by value. */
    const std::vector<Bin> &bins() const
    {
        flush();
        return bins_;
    }

  private:
    /** Values below this go through the dense fast path. */
    static constexpr std::uint64_t kDenseCap = 65536;

    void growDense(std::uint64_t value);
    /** Insert a value past the dense range into the sorted bins. */
    void addSparse(std::uint64_t value, std::uint64_t weight);
    /** The bins with the dense counters merged in; *this unchanged. */
    std::vector<Bin> sortedBins() const;
    /** Merge the dense counters into the bins (totals unchanged). */
    void flush() const;

    mutable std::vector<Bin> bins_;
    /** Pending counts of values below kDenseCap; all zero unless
     *  dirty_. Only a histogram being written holds it. */
    mutable std::vector<std::uint64_t> dense_;
    mutable bool dirty_ = false;
    std::uint64_t count_ = 0;
    /** Integer accumulator: exact (no float rounding on the add path)
     *  and cheaper than the int-to-double conversions per sample.
     *  Wraps only past 2^64 total mass, far beyond any simulation. */
    std::uint64_t sum_ = 0;
};

} // namespace fasttrack

#endif // FT_COMMON_STATS_HPP
