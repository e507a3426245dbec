#include "stats.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

namespace perfbench {
namespace {

TEST(PerfbenchStats, MedianOfOddCountIsMiddleSample) {
  EXPECT_EQ(median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_EQ(median({7.5}), 7.5);
}

TEST(PerfbenchStats, MedianOfEvenCountAveragesMiddlePair) {
  EXPECT_EQ(median({4.0, 1.0, 3.0, 2.0}), 2.5);
}

TEST(PerfbenchStats, MedianIgnoresOneOutlier) {
  EXPECT_EQ(median({1.0, 1.0, 1.0, 1.0, 1000.0}), 1.0);
}

TEST(PerfbenchStats, MedianOfNothingThrows) {
  EXPECT_THROW(median({}), std::invalid_argument);
}

TEST(PerfbenchStats, SamplesNeededForTenBeyondPercentile) {
  EXPECT_EQ(samples_for_percentile(50.0), 20u);
  EXPECT_EQ(samples_for_percentile(90.0), 100u);
  EXPECT_EQ(samples_for_percentile(95.0), 200u);
  EXPECT_EQ(samples_for_percentile(99.0), 1000u);
  EXPECT_EQ(samples_for_percentile(99.9), 10000u);
  EXPECT_THROW(samples_for_percentile(100.0), std::invalid_argument);
}

TEST(PerfbenchStats, HighestTailPercentileNeedsTenSamplesBeyondIt) {
  EXPECT_FALSE(highest_tail_percentile(0).has_value());
  EXPECT_FALSE(highest_tail_percentile(19).has_value());
  EXPECT_EQ(highest_tail_percentile(20), 50.0);
  EXPECT_EQ(highest_tail_percentile(99), 50.0);
  EXPECT_EQ(highest_tail_percentile(100), 90.0);
  EXPECT_EQ(highest_tail_percentile(199), 90.0);
  EXPECT_EQ(highest_tail_percentile(200), 95.0);
  EXPECT_EQ(highest_tail_percentile(999), 95.0);
  EXPECT_EQ(highest_tail_percentile(1000), 99.0);
  EXPECT_EQ(highest_tail_percentile(10000), 99.9);
  EXPECT_EQ(highest_tail_percentile(1000000), 99.9);
}

TEST(PerfbenchStats, OutcomesCountFailedChecksAndExceptions) {
  Outcomes outcomes;
  EXPECT_FALSE(outcomes.all_passed());  // nothing attempted is not a pass
  EXPECT_TRUE(outcomes.run([] { return true; }));
  EXPECT_TRUE(outcomes.all_passed());
  EXPECT_FALSE(outcomes.run([] { return false; }));
  EXPECT_FALSE(outcomes.run([]() -> bool { throw std::runtime_error("boom"); }));
  EXPECT_TRUE(outcomes.run([] { return true; }));
  EXPECT_EQ(outcomes.attempted(), 4u);
  EXPECT_EQ(outcomes.failed(), 2u);
  EXPECT_FALSE(outcomes.all_passed());
}

}  // namespace
}  // namespace perfbench
