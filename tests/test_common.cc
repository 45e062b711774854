/**
 * @file
 * Unit tests for the common substrate: statistics toolkit and RNG.
 */

#include <gtest/gtest.h>

#include "common/rng.hh"
#include "common/stats.hh"

namespace constable {
namespace {

TEST(Stats, GeomeanOfEqualValues)
{
    EXPECT_DOUBLE_EQ(geomean({ 2.0, 2.0, 2.0 }), 2.0);
}

TEST(Stats, GeomeanMixed)
{
    EXPECT_NEAR(geomean({ 1.0, 4.0 }), 2.0, 1e-12);
}

TEST(Stats, GeomeanEmptyIsZero)
{
    EXPECT_DOUBLE_EQ(geomean({}), 0.0);
}

TEST(Stats, GeomeanSkipsNonPositiveSamples)
{
    // Regression: log(0) = -inf used to collapse the whole mean to 0 and
    // a negative sample NaN-poisoned it. Both are skipped now (stats.hh);
    // the mean of the remaining positives {2, 8} is 4.
    EXPECT_DOUBLE_EQ(geomean({ 0.0, 2.0, 8.0 }), 4.0);
    EXPECT_DOUBLE_EQ(geomean({ -3.0, 2.0, 8.0 }), 4.0);
    EXPECT_FALSE(std::isnan(geomean({ -3.0, 2.0, 8.0 })));
    // No positive sample at all degrades to the empty-input answer.
    EXPECT_DOUBLE_EQ(geomean({ 0.0, -1.0 }), 0.0);
}

TEST(Stats, PercentileSortedEdges)
{
    EXPECT_DOUBLE_EQ(percentileSorted({}, 0.5), 0.0);
    EXPECT_DOUBLE_EQ(percentileSorted({ 9.0 }, 0.0), 9.0);
    EXPECT_DOUBLE_EQ(percentileSorted({ 9.0 }, 0.99), 9.0);
    // n=2 interpolates linearly between the two samples.
    EXPECT_DOUBLE_EQ(percentileSorted({ 10.0, 20.0 }, 0.0), 10.0);
    EXPECT_DOUBLE_EQ(percentileSorted({ 10.0, 20.0 }, 0.5), 15.0);
    EXPECT_DOUBLE_EQ(percentileSorted({ 10.0, 20.0 }, 0.95), 19.5);
    EXPECT_DOUBLE_EQ(percentileSorted({ 10.0, 20.0 }, 1.0), 20.0);
    EXPECT_DOUBLE_EQ(percentileSorted({ 5.0, 5.0, 5.0 }, 0.99), 5.0);
}

TEST(Stats, MeanBasic)
{
    EXPECT_DOUBLE_EQ(mean({ 1.0, 2.0, 3.0 }), 2.0);
    EXPECT_DOUBLE_EQ(mean({}), 0.0);
}

TEST(Stats, RatioZeroDenominator)
{
    EXPECT_DOUBLE_EQ(ratio(5.0, 0.0), 0.0);
    EXPECT_DOUBLE_EQ(ratio(6.0, 2.0), 3.0);
}

TEST(Stats, BoxWhiskerSingleSample)
{
    BoxWhisker b = BoxWhisker::from({ 7.0 });
    EXPECT_DOUBLE_EQ(b.min, 7.0);
    EXPECT_DOUBLE_EQ(b.max, 7.0);
    EXPECT_DOUBLE_EQ(b.median, 7.0);
    EXPECT_EQ(b.n, 1u);
}

TEST(Stats, BoxWhiskerQuartiles)
{
    BoxWhisker b = BoxWhisker::from({ 1, 2, 3, 4, 5 });
    EXPECT_DOUBLE_EQ(b.median, 3.0);
    EXPECT_DOUBLE_EQ(b.q1, 2.0);
    EXPECT_DOUBLE_EQ(b.q3, 4.0);
    EXPECT_DOUBLE_EQ(b.meanVal, 3.0);
}

TEST(Stats, BoxWhiskerOutlierWhiskers)
{
    // 100 is beyond q3 + 1.5*IQR: the whisker must stop at 5.
    BoxWhisker b = BoxWhisker::from({ 1, 2, 3, 4, 5, 100 });
    EXPECT_LT(b.whiskerHi, 100.0);
    EXPECT_DOUBLE_EQ(b.max, 100.0);
}

TEST(Stats, BoxWhiskerEmpty)
{
    BoxWhisker b = BoxWhisker::from({});
    EXPECT_EQ(b.n, 0u);
}

TEST(Stats, BoxWhiskerTwoSamples)
{
    BoxWhisker b = BoxWhisker::from({ 1.0, 3.0 });
    EXPECT_EQ(b.n, 2u);
    EXPECT_DOUBLE_EQ(b.q1, 1.5);
    EXPECT_DOUBLE_EQ(b.median, 2.0);
    EXPECT_DOUBLE_EQ(b.q3, 2.5);
    // IQR 1 puts the limits at [0, 4]: both samples are inside, so the
    // whiskers reach the extremes.
    EXPECT_DOUBLE_EQ(b.whiskerLo, 1.0);
    EXPECT_DOUBLE_EQ(b.whiskerHi, 3.0);
}

TEST(Stats, BoxWhiskerAllEqualSamples)
{
    BoxWhisker b = BoxWhisker::from({ 5.0, 5.0, 5.0, 5.0 });
    EXPECT_DOUBLE_EQ(b.min, 5.0);
    EXPECT_DOUBLE_EQ(b.q1, 5.0);
    EXPECT_DOUBLE_EQ(b.median, 5.0);
    EXPECT_DOUBLE_EQ(b.q3, 5.0);
    EXPECT_DOUBLE_EQ(b.max, 5.0);
    EXPECT_DOUBLE_EQ(b.whiskerLo, 5.0);
    EXPECT_DOUBLE_EQ(b.whiskerHi, 5.0);
}

TEST(Stats, BoxWhiskerZeroIqrClampsWhiskersToTheBox)
{
    // q1 = q3 = 5 makes the 1.5*IQR limits degenerate to [5, 5]: the
    // outlier at 100 stays an outlier and the whisker stops at the box.
    BoxWhisker b = BoxWhisker::from({ 5.0, 5.0, 5.0, 5.0, 100.0 });
    EXPECT_DOUBLE_EQ(b.q1, 5.0);
    EXPECT_DOUBLE_EQ(b.q3, 5.0);
    EXPECT_DOUBLE_EQ(b.whiskerHi, 5.0);
    EXPECT_DOUBLE_EQ(b.whiskerLo, 5.0);
    EXPECT_DOUBLE_EQ(b.max, 100.0);
}

TEST(Stats, HistogramBucketsAndLabels)
{
    Histogram h({ 50, 100, 250 });
    ASSERT_EQ(h.numBuckets(), 4u);
    h.add(0);
    h.add(49);
    h.add(50);
    h.add(249);
    h.add(250);
    h.add(100000);
    EXPECT_EQ(h.bucketCount(0), 2u);
    EXPECT_EQ(h.bucketCount(1), 1u);
    EXPECT_EQ(h.bucketCount(2), 1u);
    EXPECT_EQ(h.bucketCount(3), 2u);
    EXPECT_EQ(h.total(), 6u);
    EXPECT_EQ(h.bucketLabel(0), "[0,50)");
    EXPECT_EQ(h.bucketLabel(3), "250+");
    EXPECT_DOUBLE_EQ(h.bucketFrac(0), 2.0 / 6.0);
}

TEST(Stats, HistogramWeights)
{
    Histogram h({ 10 });
    h.add(5, 3);
    EXPECT_EQ(h.bucketCount(0), 3u);
}

TEST(Stats, StatSetGet)
{
    StatSet a;
    a.set("x", 3);
    EXPECT_DOUBLE_EQ(a.get("x"), 3.0);
    EXPECT_TRUE(a.has("x"));
    EXPECT_DOUBLE_EQ(a.get("missing"), 0.0);
    EXPECT_FALSE(a.has("missing"));
}

TEST(Rng, Deterministic)
{
    Rng a(42), b(42);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer)
{
    Rng a(1), b(2);
    EXPECT_NE(a.next(), b.next());
}

TEST(Rng, BelowInRange)
{
    Rng r(7);
    for (int i = 0; i < 1000; ++i)
        EXPECT_LT(r.below(13), 13u);
}

TEST(Rng, RangeInclusive)
{
    Rng r(9);
    bool sawLo = false, sawHi = false;
    for (int i = 0; i < 2000; ++i) {
        uint64_t v = r.range(3, 5);
        EXPECT_GE(v, 3u);
        EXPECT_LE(v, 5u);
        sawLo |= v == 3;
        sawHi |= v == 5;
    }
    EXPECT_TRUE(sawLo);
    EXPECT_TRUE(sawHi);
}

TEST(Rng, ChanceExtremes)
{
    Rng r(11);
    for (int i = 0; i < 100; ++i) {
        EXPECT_FALSE(r.chance(0.0));
        EXPECT_TRUE(r.chance(1.0));
    }
}

TEST(Rng, ChanceApproximatesProbability)
{
    Rng r(13);
    int hits = 0;
    for (int i = 0; i < 10000; ++i)
        hits += r.chance(0.3);
    EXPECT_NEAR(hits / 10000.0, 0.3, 0.03);
}

} // namespace
} // namespace constable
