#include "common/stats.hpp"

#include <algorithm>
#include <cmath>
#include <iterator>
#include <utility>

#include "common/logging.hpp"

namespace fasttrack {

void
RunningStat::add(double x)
{
    ++count_;
    if (count_ == 1) {
        mean_ = min_ = max_ = x;
        m2_ = 0.0;
        return;
    }
    const double delta = x - mean_;
    mean_ += delta / static_cast<double>(count_);
    m2_ += delta * (x - mean_);
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
}

void
RunningStat::merge(const RunningStat &other)
{
    if (other.count_ == 0)
        return;
    if (count_ == 0) {
        *this = other;
        return;
    }
    const double na = static_cast<double>(count_);
    const double nb = static_cast<double>(other.count_);
    const double delta = other.mean_ - mean_;
    const double total = na + nb;
    mean_ += delta * nb / total;
    m2_ += other.m2_ + delta * delta * na * nb / total;
    count_ += other.count_;
    min_ = std::min(min_, other.min_);
    max_ = std::max(max_, other.max_);
}

void
RunningStat::reset()
{
    *this = RunningStat{};
}

double
RunningStat::variance() const
{
    if (count_ < 2)
        return 0.0;
    return m2_ / static_cast<double>(count_ - 1);
}

double
RunningStat::stddev() const
{
    return std::sqrt(variance());
}

namespace {

using Bin = Histogram::Bin;

/** Append (@p value, @p count) to the ascending @p out, summing into
 *  its last bin when that holds the same value; a zero count adds
 *  nothing. */
void
appendBin(std::vector<Bin> &out, std::uint64_t value, std::uint64_t count)
{
    if (count == 0)
        return;
    if (!out.empty() && out.back().first == value)
        out.back().second += count;
    else
        out.emplace_back(value, count);
}

/** The ascending union of the ascending @p a and @p b, the counts of
 *  one value summed into one bin. */
std::vector<Bin>
mergeBins(const std::vector<Bin> &a, const std::vector<Bin> &b)
{
    std::vector<Bin> out;
    out.reserve(a.size() + b.size());
    auto i = a.begin();
    auto j = b.begin();
    while (i != a.end() || j != b.end()) {
        const bool from_a =
            j == b.end() || (i != a.end() && i->first <= j->first);
        const Bin &next = from_a ? *i++ : *j++;
        appendBin(out, next.first, next.second);
    }
    out.shrink_to_fit();
    return out;
}

} // namespace

Histogram::Histogram(const Histogram &other)
    : bins_(other.sortedBins()), count_(other.count_), sum_(other.sum_)
{
}

Histogram &
Histogram::operator=(const Histogram &other)
{
    if (this != &other)
        *this = Histogram(other);
    return *this;
}

Histogram::Histogram(Histogram &&other) noexcept
    : bins_(std::exchange(other.bins_, {})),
      dense_(std::exchange(other.dense_, {})),
      dirty_(std::exchange(other.dirty_, false)),
      count_(std::exchange(other.count_, 0)),
      sum_(std::exchange(other.sum_, 0))
{
}

Histogram &
Histogram::operator=(Histogram &&other) noexcept
{
    bins_ = std::exchange(other.bins_, {});
    dense_ = std::exchange(other.dense_, {});
    dirty_ = std::exchange(other.dirty_, false);
    count_ = std::exchange(other.count_, 0);
    sum_ = std::exchange(other.sum_, 0);
    return *this;
}

void
Histogram::growDense(std::uint64_t value)
{
    const std::uint64_t want = std::max(value + 1, 2 * dense_.size());
    dense_.resize(std::min(want, kDenseCap), 0);
}

void
Histogram::addSparse(std::uint64_t value, std::uint64_t weight)
{
    if (weight == 0)
        return;
    // Such values are rare and arrive close to in order (the queueing
    // delay of a long saturated run grows with time), so the insert
    // lands at or near the end.
    const auto at = std::lower_bound(
        bins_.begin(), bins_.end(), value,
        [](const Bin &b, std::uint64_t v) { return b.first < v; });
    if (at != bins_.end() && at->first == value)
        at->second += weight;
    else
        bins_.insert(at, {value, weight});
}

void
Histogram::addBins(std::vector<Bin> bins)
{
    const auto ascending = [](const Bin &a, const Bin &b) {
        return a.first < b.first;
    };
    if (!std::is_sorted(bins.begin(), bins.end(), ascending))
        std::sort(bins.begin(), bins.end(), ascending);
    // Sum the repeats of each value into one bin, in place.
    auto last = bins.begin();
    for (const auto &[value, n] : bins) {
        count_ += n;
        sum_ += value * n;
        if (n == 0)
            continue;
        if (last != bins.begin() && std::prev(last)->first == value)
            std::prev(last)->second += n;
        else
            *last++ = {value, n};
    }
    bins.erase(last, bins.end());
    bins_ = bins_.empty() ? std::move(bins) : mergeBins(bins_, bins);
}

std::vector<Bin>
Histogram::sortedBins() const
{
    if (!dirty_)
        return bins_;
    const auto pending = static_cast<std::size_t>(
        std::count_if(dense_.begin(), dense_.end(),
                      [](std::uint64_t n) { return n != 0; }));
    std::vector<Bin> out;
    out.reserve(bins_.size() + pending);
    auto it = bins_.begin();
    for (std::uint64_t v = 0; v < dense_.size(); ++v) {
        if (dense_[v] == 0)
            continue;
        for (; it != bins_.end() && it->first <= v; ++it)
            appendBin(out, it->first, it->second);
        appendBin(out, v, dense_[v]);
    }
    out.insert(out.end(), it, bins_.end());
    return out;
}

void
Histogram::flush() const
{
    if (!dirty_)
        return;
    bins_ = sortedBins();
    std::fill(dense_.begin(), dense_.end(), 0);
    dirty_ = false;
}

void
Histogram::merge(const Histogram &other)
{
    flush();
    bins_ = mergeBins(bins_, other.sortedBins());
    count_ += other.count_;
    sum_ += other.sum_;
}

void
Histogram::reset()
{
    *this = Histogram{};
}

double
Histogram::mean() const
{
    return count_ ? static_cast<double>(sum_) /
                        static_cast<double>(count_)
                  : 0.0;
}

std::uint64_t
Histogram::min() const
{
    flush();
    return bins_.empty() ? 0 : bins_.front().first;
}

std::uint64_t
Histogram::max() const
{
    flush();
    return bins_.empty() ? 0 : bins_.back().first;
}

std::uint64_t
Histogram::percentile(double p) const
{
    FT_ASSERT(p >= 0.0 && p <= 100.0, "percentile(", p, ")");
    if (count_ == 0)
        return 0;
    flush();
    const auto target = static_cast<std::uint64_t>(
        std::ceil(p / 100.0 * static_cast<double>(count_)));
    std::uint64_t seen = 0;
    for (const auto &[value, n] : bins_) {
        seen += n;
        if (seen >= target)
            return value;
    }
    return bins_.back().first;
}

double
Histogram::percentileLerp(double p) const
{
    if (count_ == 0)
        return 0.0;
    p = std::clamp(p, 0.0, 100.0);
    flush();
    // Continuous 0-based rank; its floor/ceil neighbours are found in
    // one cumulative walk (bins_ is ordered by value).
    const double rank =
        p / 100.0 * static_cast<double>(count_ - 1);
    const auto lo_rank = static_cast<std::uint64_t>(rank);
    const double frac = rank - static_cast<double>(lo_rank);
    std::uint64_t seen = 0;
    double lo_value = 0.0;
    bool have_lo = false;
    for (const auto &[value, n] : bins_) {
        seen += n;
        if (!have_lo && seen > lo_rank) {
            lo_value = static_cast<double>(value);
            have_lo = true;
            // Both ranks inside this bin (or no fraction): no
            // interpolation needed.
            if (frac == 0.0 || seen > lo_rank + 1)
                return lo_value;
        } else if (have_lo) {
            // First bin past lo holds the hi-rank sample.
            return lo_value +
                   frac * (static_cast<double>(value) - lo_value);
        }
    }
    // lo was the last sample (p == 100 up to rounding).
    return lo_value;
}

std::vector<std::pair<std::uint64_t, std::uint64_t>>
Histogram::logBuckets() const
{
    std::vector<std::pair<std::uint64_t, std::uint64_t>> out;
    flush();
    if (bins_.empty())
        return out;
    std::uint64_t bound = 1;
    std::uint64_t acc = 0;
    for (const auto &[value, n] : bins_) {
        while (value >= bound) {
            out.emplace_back(bound, acc);
            acc = 0;
            bound *= 2;
        }
        acc += n;
    }
    out.emplace_back(bound, acc);
    // Drop leading empty buckets for compact output.
    while (!out.empty() && out.front().second == 0)
        out.erase(out.begin());
    return out;
}

} // namespace fasttrack
