// Unit tests for the statistics framework.
#include <gtest/gtest.h>

#include <sstream>

#include "sim/stats.hh"

namespace accesys::stats {
namespace {

struct Fixture : ::testing::Test {
    Registry reg;
    Group group{reg, "obj"};
};

TEST_F(Fixture, ScalarAccumulates)
{
    Scalar s(group, "count", "a counter");
    ++s;
    s += 2.5;
    EXPECT_DOUBLE_EQ(s.value(), 3.5);
    s.reset();
    EXPECT_DOUBLE_EQ(s.value(), 0.0);
}

TEST_F(Fixture, HierarchicalNaming)
{
    Scalar s(group, "count", "d");
    EXPECT_EQ(s.full_name(), "obj.count");
    EXPECT_EQ(reg.value("obj.count"), 0.0);
}

TEST_F(Fixture, DuplicateNameThrows)
{
    Scalar a(group, "x", "d");
    EXPECT_THROW(Scalar(group, "x", "d"), SimError);
}

TEST_F(Fixture, UnknownLookupThrows)
{
    EXPECT_THROW((void)reg.value("nope"), SimError);
    EXPECT_EQ(reg.find("nope"), nullptr);
}

TEST_F(Fixture, StatDeregistersOnDestruction)
{
    {
        Scalar s(group, "temp", "d");
        EXPECT_EQ(reg.size(), 1u);
    }
    EXPECT_EQ(reg.size(), 0u);
    // Name can be reused afterwards.
    Scalar s2(group, "temp", "d");
    EXPECT_EQ(reg.size(), 1u);
}

TEST_F(Fixture, AverageMeanCountTotal)
{
    Average a(group, "lat", "d");
    EXPECT_DOUBLE_EQ(a.mean(), 0.0);
    a.sample(10);
    a.sample(20);
    a.sample(60);
    EXPECT_DOUBLE_EQ(a.mean(), 30.0);
    EXPECT_EQ(a.count(), 3u);
    EXPECT_DOUBLE_EQ(a.total(), 90.0);
}

TEST_F(Fixture, DistributionMoments)
{
    Distribution d(group, "dist", "d");
    for (const double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) {
        d.sample(v);
    }
    EXPECT_DOUBLE_EQ(d.mean(), 5.0);
    EXPECT_DOUBLE_EQ(d.min(), 2.0);
    EXPECT_DOUBLE_EQ(d.max(), 9.0);
    EXPECT_NEAR(d.stddev(), 2.138, 0.001);
    EXPECT_EQ(d.count(), 8u);
}

TEST_F(Fixture, DistributionSingleSampleStddevZero)
{
    Distribution d(group, "dist", "d");
    d.sample(42.0);
    EXPECT_DOUBLE_EQ(d.stddev(), 0.0);
}

TEST_F(Fixture, HistogramBucketsAndOverflow)
{
    Histogram h(group, "hist", "d", 0.0, 100.0, 10);
    h.sample(-5.0);       // underflow
    h.sample(0.0);        // bucket 0
    h.sample(15.0);       // bucket 1
    h.sample(99.999);     // bucket 9
    h.sample(100.0);      // overflow (hi is exclusive)
    h.sample(55.0, 3);    // weighted into bucket 5
    EXPECT_EQ(h.underflow(), 1u);
    EXPECT_EQ(h.overflow(), 1u);
    EXPECT_EQ(h.buckets()[0], 1u);
    EXPECT_EQ(h.buckets()[1], 1u);
    EXPECT_EQ(h.buckets()[5], 3u);
    EXPECT_EQ(h.buckets()[9], 1u);
    EXPECT_EQ(h.count(), 8u);
}

TEST_F(Fixture, HistogramBadBoundsThrow)
{
    EXPECT_THROW(Histogram(group, "h1", "d", 10.0, 10.0, 4), SimError);
}

TEST_F(Fixture, ValueFnComputesOnDemand)
{
    double source = 1.0;
    ValueFn v(group, "fn", "d", [&source] { return source * 2; });
    EXPECT_DOUBLE_EQ(v.value(), 2.0);
    source = 21.0;
    EXPECT_DOUBLE_EQ(v.value(), 42.0);
}

TEST_F(Fixture, TextDumpContainsAllStats)
{
    Scalar s(group, "alpha", "d");
    Average a(group, "beta", "d");
    s += 7;
    std::ostringstream os;
    reg.write_text(os);
    const std::string out = os.str();
    EXPECT_NE(out.find("obj.alpha 7"), std::string::npos);
    EXPECT_NE(out.find("obj.beta"), std::string::npos);
}

TEST_F(Fixture, JsonDumpIsWellFormedish)
{
    Scalar s(group, "alpha", "d");
    Histogram h(group, "hist", "d", 0, 10, 2);
    h.sample(1);
    std::ostringstream os;
    reg.write_json(os);
    const std::string out = os.str();
    EXPECT_EQ(out.front(), '{');
    EXPECT_NE(out.find("\"obj.alpha\""), std::string::npos);
    EXPECT_NE(out.find("\"buckets\": [1, 0]"), std::string::npos);
}

TEST_F(Fixture, ResetAllClearsEverything)
{
    Scalar s(group, "a", "d");
    Average avg(group, "b", "d");
    s += 5;
    avg.sample(3);
    reg.reset_all();
    EXPECT_DOUBLE_EQ(s.value(), 0.0);
    EXPECT_EQ(avg.count(), 0u);
}

TEST(StatsGroups, EmptyPrefixUsesBareName)
{
    Registry reg;
    Group root(reg, "");
    Scalar s(root, "global", "d");
    EXPECT_EQ(s.full_name(), "global");
}

} // namespace
} // namespace accesys::stats
