#include "common/stats.h"

#include <gtest/gtest.h>

#include <array>

#include "common/types.h"

namespace raw::common {
namespace {

TEST(RunningStatTest, EmptyIsZero) {
  RunningStat s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.variance(), 0.0);
}

TEST(RunningStatTest, MeanMinMaxSum) {
  RunningStat s;
  for (const double x : {3.0, 1.0, 2.0}) s.add(x);
  EXPECT_EQ(s.count(), 3u);
  EXPECT_DOUBLE_EQ(s.mean(), 2.0);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 3.0);
  EXPECT_DOUBLE_EQ(s.sum(), 6.0);
}

TEST(RunningStatTest, VarianceMatchesClosedForm) {
  RunningStat s;
  for (const double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  // Sample variance of this classic data set is 32/7.
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);
}

TEST(RunningStatTest, ResetClears) {
  RunningStat s;
  s.add(5.0);
  s.reset();
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.mean(), 0.0);
}

TEST(JainFairnessTest, PerfectFairness) {
  const std::array<double, 4> x{5.0, 5.0, 5.0, 5.0};
  EXPECT_DOUBLE_EQ(jain_fairness(x.data(), x.size()), 1.0);
}

TEST(JainFairnessTest, TotalStarvation) {
  const std::array<double, 4> x{20.0, 0.0, 0.0, 0.0};
  EXPECT_DOUBLE_EQ(jain_fairness(x.data(), x.size()), 0.25);
}

TEST(JainFairnessTest, EmptyAndZeroInputs) {
  EXPECT_DOUBLE_EQ(jain_fairness(nullptr, 0), 1.0);
  const std::array<double, 3> zeros{0.0, 0.0, 0.0};
  EXPECT_DOUBLE_EQ(jain_fairness(zeros.data(), zeros.size()), 1.0);
}

TEST(TypesTest, WordsForBytesRoundsUp) {
  EXPECT_EQ(words_for_bytes(0), 0u);
  EXPECT_EQ(words_for_bytes(1), 1u);
  EXPECT_EQ(words_for_bytes(4), 1u);
  EXPECT_EQ(words_for_bytes(5), 2u);
  EXPECT_EQ(words_for_bytes(1024), 256u);
}

TEST(TypesTest, ThroughputHelpers) {
  // 64 bytes in 64 cycles at 250 MHz = 2 Gbps.
  EXPECT_NEAR(gbps(64, 64), 2.0, 1e-12);
  // 1 packet per 250 cycles at 250 MHz = 1 Mpps.
  EXPECT_NEAR(mpps(1, 250), 1.0, 1e-12);
}

}  // namespace
}  // namespace raw::common
