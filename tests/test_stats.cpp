/**
 * @file
 * Unit tests for RunningStat and Histogram.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "common/stats.hpp"

namespace fasttrack {
namespace {

TEST(RunningStat, EmptyIsZero)
{
    RunningStat s;
    EXPECT_EQ(s.count(), 0u);
    EXPECT_EQ(s.mean(), 0.0);
    EXPECT_EQ(s.variance(), 0.0);
    EXPECT_EQ(s.sum(), 0.0);
}

TEST(RunningStat, KnownSequence)
{
    RunningStat s;
    for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0})
        s.add(x);
    EXPECT_EQ(s.count(), 8u);
    EXPECT_DOUBLE_EQ(s.mean(), 5.0);
    EXPECT_DOUBLE_EQ(s.min(), 2.0);
    EXPECT_DOUBLE_EQ(s.max(), 9.0);
    // Sample variance of the classic sequence: 32/7.
    EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);
}

TEST(RunningStat, MergeMatchesSequential)
{
    Rng rng(5);
    RunningStat whole, a, b;
    for (int i = 0; i < 500; ++i) {
        const double x = rng.nextDouble() * 100.0;
        whole.add(x);
        (i % 2 ? a : b).add(x);
    }
    a.merge(b);
    EXPECT_EQ(a.count(), whole.count());
    EXPECT_NEAR(a.mean(), whole.mean(), 1e-9);
    EXPECT_NEAR(a.variance(), whole.variance(), 1e-6);
    EXPECT_DOUBLE_EQ(a.min(), whole.min());
    EXPECT_DOUBLE_EQ(a.max(), whole.max());
}

TEST(RunningStat, MergeWithEmpty)
{
    RunningStat a, b;
    a.add(3.0);
    a.merge(b);
    EXPECT_EQ(a.count(), 1u);
    b.merge(a);
    EXPECT_EQ(b.count(), 1u);
    EXPECT_DOUBLE_EQ(b.mean(), 3.0);
}

TEST(Histogram, MeanMinMax)
{
    Histogram h;
    h.add(1);
    h.add(2);
    h.add(3);
    h.add(3);
    EXPECT_EQ(h.count(), 4u);
    EXPECT_DOUBLE_EQ(h.mean(), 2.25);
    EXPECT_EQ(h.min(), 1u);
    EXPECT_EQ(h.max(), 3u);
}

TEST(Histogram, WeightedAdd)
{
    Histogram h;
    h.add(10, 5);
    h.add(20, 5);
    EXPECT_EQ(h.count(), 10u);
    EXPECT_DOUBLE_EQ(h.mean(), 15.0);
}

TEST(Histogram, ExactPercentiles)
{
    Histogram h;
    for (std::uint64_t v = 1; v <= 100; ++v)
        h.add(v);
    EXPECT_EQ(h.percentile(1), 1u);
    EXPECT_EQ(h.percentile(50), 50u);
    EXPECT_EQ(h.percentile(99), 99u);
    EXPECT_EQ(h.percentile(100), 100u);
    EXPECT_EQ(h.percentile(0), 1u);
}

TEST(Histogram, PercentileOnSkewedData)
{
    Histogram h;
    h.add(1, 99);
    h.add(1000, 1);
    EXPECT_EQ(h.percentile(50), 1u);
    EXPECT_EQ(h.percentile(99), 1u);
    EXPECT_EQ(h.percentile(100), 1000u);
}

/** Count of the bin holding @p value in @p h's sorted bins (0 when
 *  there is none). */
std::uint64_t
binCount(const Histogram &h, std::uint64_t value)
{
    for (const auto &[v, n] : h.bins()) {
        if (v == value)
            return n;
    }
    return 0;
}

TEST(Histogram, MergeAccumulates)
{
    Histogram a, b;
    a.add(1, 3);
    b.add(1, 2);
    b.add(7);
    a.merge(b);
    EXPECT_EQ(a.count(), 6u);
    EXPECT_EQ(binCount(a, 1), 5u);
    EXPECT_EQ(binCount(a, 7), 1u);
}

/** Every read a histogram offers agrees between @p a and @p b. */
void
expectSameReads(const Histogram &a, const Histogram &b)
{
    EXPECT_EQ(a.bins(), b.bins());
    EXPECT_EQ(a.count(), b.count());
    EXPECT_EQ(a.mean(), b.mean());
    EXPECT_EQ(a.min(), b.min());
    EXPECT_EQ(a.max(), b.max());
    for (double p : {0.0, 10.0, 50.0, 90.0, 99.0, 100.0}) {
        EXPECT_EQ(a.percentile(p), b.percentile(p)) << "p=" << p;
        EXPECT_EQ(a.percentileLerp(p), b.percentileLerp(p)) << "p=" << p;
    }
}

TEST(Histogram, CopyOfUnflushedHistogramIsIndependent)
{
    // Nothing reads the source before the copy, so its small values
    // are still pending in the dense counters; 70,000 lies past them.
    const auto fill = [](Histogram &h) {
        for (std::uint64_t v : {3u, 1u, 4u, 1u, 5u, 9u, 2u, 6u})
            h.add(v);
        h.add(70'000, 2);
    };
    Histogram src, twin;
    fill(src);
    fill(twin);
    Histogram copy(src);
    expectSameReads(copy, src);

    // Later adds to either one leave the other unchanged.
    src.add(11);
    src.add(90'000);
    expectSameReads(copy, twin);
    copy.add(2, 3);
    copy.add(100'000);
    twin.add(11);
    twin.add(90'000);
    expectSameReads(src, twin);
}

// Reading the moved-from histograms is what this test checks.
// NOLINTBEGIN(bugprone-use-after-move)
TEST(Histogram, MovedFromIsEmpty)
{
    using Bins = std::vector<Histogram::Bin>;
    Histogram a;
    a.add(3);
    a.add(70'000);
    Histogram b(std::move(a));
    EXPECT_EQ(a.count(), 0u);
    EXPECT_EQ(a.mean(), 0.0);
    EXPECT_TRUE(a.bins().empty());

    Histogram c;
    c.add(9);
    c = std::move(b);
    EXPECT_EQ(b.count(), 0u);
    EXPECT_TRUE(b.bins().empty());
    EXPECT_EQ(c.count(), 2u);
    EXPECT_EQ(c.bins(), (Bins{{3, 1}, {70'000, 1}}));

    // A moved-from histogram takes new samples like a fresh one.
    a.add(5);
    EXPECT_EQ(a.bins(), (Bins{{5, 1}}));
    EXPECT_EQ(a.count(), 1u);
}
// NOLINTEND(bugprone-use-after-move)

TEST(Histogram, AddBinsSumsRepeatsInAnyOrder)
{
    using Bins = std::vector<Histogram::Bin>;
    Histogram h;
    h.add(4);
    h.add(80'000);
    h.addBins({{80'000, 2}, {4, 1}, {2, 3}, {4, 5}});
    EXPECT_EQ(h.bins(), (Bins{{2, 3}, {4, 7}, {80'000, 3}}));
    EXPECT_EQ(h.count(), 13u);
    EXPECT_EQ(h.mean(), (6.0 + 28.0 + 240'000.0) / 13.0);
}

TEST(Histogram, LogBucketsCoverEverything)
{
    Histogram h;
    for (std::uint64_t v : {1ull, 2ull, 3ull, 6ull, 100ull, 1000ull})
        h.add(v);
    const auto buckets = h.logBuckets();
    std::uint64_t total = 0;
    std::uint64_t prev_bound = 0;
    for (const auto &[bound, count] : buckets) {
        EXPECT_GT(bound, prev_bound);
        prev_bound = bound;
        total += count;
    }
    EXPECT_EQ(total, h.count());
    // Upper bound of the last bucket must exceed the max sample.
    EXPECT_GT(buckets.back().first, h.max());
}

TEST(Histogram, ResetClears)
{
    Histogram h;
    h.add(5);
    h.reset();
    EXPECT_EQ(h.count(), 0u);
    EXPECT_TRUE(h.bins().empty());
}

TEST(Histogram, LerpPercentileEmptyIsZeroNotNaN)
{
    const Histogram h;
    for (double p : {0.0, 50.0, 99.9, 100.0}) {
        const double v = h.percentileLerp(p);
        EXPECT_EQ(v, 0.0);
        EXPECT_FALSE(std::isnan(v));
    }
}

TEST(Histogram, LerpPercentileSingleSample)
{
    Histogram h;
    h.add(42);
    // Every percentile of a one-sample distribution is that sample.
    for (double p : {0.0, 25.0, 50.0, 95.0, 100.0})
        EXPECT_EQ(h.percentileLerp(p), 42.0);
}

TEST(Histogram, LerpPercentileInterpolates)
{
    Histogram h;
    for (std::uint64_t v : {10, 20, 30, 40}) // ranks 0..3
        h.add(v);
    // numpy.percentile(..., interpolation="linear") reference values.
    EXPECT_DOUBLE_EQ(h.percentileLerp(0), 10.0);
    EXPECT_DOUBLE_EQ(h.percentileLerp(50), 25.0);
    EXPECT_DOUBLE_EQ(h.percentileLerp(75), 32.5);
    EXPECT_DOUBLE_EQ(h.percentileLerp(100), 40.0);
}

TEST(Histogram, LerpPercentileClampsAndRepeats)
{
    Histogram h;
    h.add(1, 99);
    h.add(1000);
    // Out-of-range p clamps instead of reading out of bounds.
    EXPECT_DOUBLE_EQ(h.percentileLerp(-5), 1.0);
    EXPECT_DOUBLE_EQ(h.percentileLerp(250), 1000.0);
    EXPECT_DOUBLE_EQ(h.percentileLerp(50), 1.0);
    // rank = 0.99 * 99 = 98.01: between rank 98 (value 1) and rank
    // 99 (value 1000), so 1 + 0.01 * 999.
    EXPECT_NEAR(h.percentileLerp(99), 10.99, 1e-6);
}

} // namespace
} // namespace fasttrack
