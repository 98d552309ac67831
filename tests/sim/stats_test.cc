/**
 * @file
 * Unit tests for the statistics primitives.
 */

#include <gtest/gtest.h>

#include "sim/stats.hh"

namespace vpc
{
namespace
{

TEST(Counter, IncrementAndReset)
{
    Counter c;
    EXPECT_EQ(c.value(), 0u);
    c.inc();
    c.inc(4);
    EXPECT_EQ(c.value(), 5u);
    c.reset();
    EXPECT_EQ(c.value(), 0u);
}

TEST(UtilizationStat, ComputesFraction)
{
    UtilizationStat u;
    u.addBusy(25);
    u.addBusy(25);
    EXPECT_EQ(u.busyCycles(), 50u);
    EXPECT_DOUBLE_EQ(u.utilization(100), 0.5);
    EXPECT_DOUBLE_EQ(u.utilization(0), 0.0);
}

TEST(UtilizationStat, ClampsToOne)
{
    UtilizationStat u;
    u.addBusy(150);
    EXPECT_DOUBLE_EQ(u.utilization(100), 1.0);
}

TEST(SampleStat, TracksMeanMinMax)
{
    SampleStat s;
    s.sample(2.0);
    s.sample(4.0);
    s.sample(9.0);
    EXPECT_EQ(s.count(), 3u);
    EXPECT_DOUBLE_EQ(s.mean(), 5.0);
    EXPECT_DOUBLE_EQ(s.min(), 2.0);
    EXPECT_DOUBLE_EQ(s.max(), 9.0);
    s.reset();
    EXPECT_EQ(s.count(), 0u);
    EXPECT_DOUBLE_EQ(s.mean(), 0.0);
}

} // namespace
} // namespace vpc
