/**
 * @file
 * Unit tests for RunningStat, Percentile, and geomean.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "util/stats.hh"

using namespace pim::util;

TEST(RunningStat, EmptyDefaults)
{
    RunningStat s;
    EXPECT_EQ(s.count(), 0u);
    EXPECT_EQ(s.mean(), 0.0);
    EXPECT_EQ(s.variance(), 0.0);
}

TEST(RunningStat, MeanMinMax)
{
    RunningStat s;
    for (double x : {3.0, 1.0, 4.0, 1.0, 5.0})
        s.add(x);
    EXPECT_EQ(s.count(), 5u);
    EXPECT_DOUBLE_EQ(s.mean(), 2.8);
    EXPECT_DOUBLE_EQ(s.min(), 1.0);
    EXPECT_DOUBLE_EQ(s.max(), 5.0);
    EXPECT_NEAR(s.sum(), 14.0, 1e-9);
}

TEST(RunningStat, Variance)
{
    RunningStat s;
    for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0})
        s.add(x);
    EXPECT_NEAR(s.variance(), 4.0, 1e-9); // classic example, sigma^2=4
    EXPECT_NEAR(s.stddev(), 2.0, 1e-9);
}

TEST(RunningStat, MergeMatchesSequential)
{
    RunningStat a, b, all;
    for (int i = 0; i < 50; ++i) {
        const double x = std::sin(i) * 10;
        (i % 2 ? a : b).add(x);
        all.add(x);
    }
    a.merge(b);
    EXPECT_EQ(a.count(), all.count());
    EXPECT_NEAR(a.mean(), all.mean(), 1e-9);
    EXPECT_NEAR(a.variance(), all.variance(), 1e-9);
    EXPECT_EQ(a.min(), all.min());
    EXPECT_EQ(a.max(), all.max());
}

TEST(RunningStat, MergeWithEmpty)
{
    RunningStat a, empty;
    a.add(1.0);
    a.merge(empty);
    EXPECT_EQ(a.count(), 1u);
    empty.merge(a);
    EXPECT_EQ(empty.count(), 1u);
    EXPECT_DOUBLE_EQ(empty.mean(), 1.0);
}

TEST(Percentile, EmptyReturnsZero)
{
    Percentile p;
    EXPECT_EQ(p.p50(), 0.0);
    EXPECT_EQ(p.mean(), 0.0);
}

TEST(Percentile, SingleSample)
{
    Percentile p;
    p.add(7.0);
    EXPECT_DOUBLE_EQ(p.p50(), 7.0);
    EXPECT_DOUBLE_EQ(p.p99(), 7.0);
    EXPECT_DOUBLE_EQ(p.percentile(0), 7.0);
    EXPECT_DOUBLE_EQ(p.percentile(100), 7.0);
}

TEST(Percentile, KnownQuartiles)
{
    Percentile p;
    for (int i = 1; i <= 101; ++i)
        p.add(static_cast<double>(i));
    EXPECT_DOUBLE_EQ(p.p50(), 51.0);
    EXPECT_DOUBLE_EQ(p.percentile(0), 1.0);
    EXPECT_DOUBLE_EQ(p.percentile(100), 101.0);
    EXPECT_DOUBLE_EQ(p.percentile(25), 26.0);
}

TEST(Percentile, InterpolatesBetweenRanks)
{
    Percentile p;
    p.add(0.0);
    p.add(10.0);
    EXPECT_DOUBLE_EQ(p.p50(), 5.0);
    EXPECT_DOUBLE_EQ(p.percentile(25), 2.5);
}

TEST(Percentile, QueryThenAddThenQuery)
{
    Percentile p;
    p.add(1.0);
    p.add(3.0);
    EXPECT_DOUBLE_EQ(p.p50(), 2.0);
    p.add(100.0);
    EXPECT_DOUBLE_EQ(p.p50(), 3.0); // re-sorts after mutation
}

TEST(Percentile, MeanAndCount)
{
    Percentile p;
    for (double x : {1.0, 2.0, 3.0})
        p.add(x);
    EXPECT_EQ(p.count(), 3u);
    EXPECT_DOUBLE_EQ(p.mean(), 2.0);
}

TEST(Geomean, KnownValues)
{
    EXPECT_DOUBLE_EQ(geomean({}), 0.0);
    EXPECT_NEAR(geomean({4.0, 9.0}), 6.0, 1e-9);
    EXPECT_NEAR(geomean({2.0, 2.0, 2.0}), 2.0, 1e-9);
}
