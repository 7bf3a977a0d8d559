#include "sim/stats.hpp"

#include <gtest/gtest.h>

namespace evps {
namespace {

TEST(Summary, EmptyDefaults) {
  const Summary s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.min(), 0.0);
  EXPECT_EQ(s.max(), 0.0);
}

TEST(Summary, BasicMoments) {
  Summary s;
  for (const double x : {1.0, 2.0, 3.0, 4.0}) s.record(x);
  EXPECT_EQ(s.count(), 4u);
  EXPECT_DOUBLE_EQ(s.sum(), 10.0);
  EXPECT_DOUBLE_EQ(s.mean(), 2.5);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 4.0);
}

TEST(Summary, Merge) {
  Summary a;
  Summary b;
  a.record(1.0);
  a.record(2.0);
  b.record(10.0);
  a.merge(b);
  EXPECT_EQ(a.count(), 3u);
  EXPECT_DOUBLE_EQ(a.max(), 10.0);
  EXPECT_DOUBLE_EQ(a.min(), 1.0);
  EXPECT_DOUBLE_EQ(a.sum(), 13.0);
}

TEST(Summary, Reset) {
  Summary s;
  s.record(5.0);
  s.reset();
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.sum(), 0.0);
}

TEST(Histogram, BucketAssignment) {
  Histogram h{{1.0, 2.0, 3.0}};
  h.record(0.5);  // bucket 0
  h.record(1.5);  // bucket 1
  h.record(2.0);  // bucket 2 (value == boundary goes high: upper_bound)
  h.record(2.5);  // bucket 2
  h.record(9.0);  // overflow bucket
  const auto& counts = h.counts();
  ASSERT_EQ(counts.size(), 4u);
  EXPECT_EQ(counts[0], 1u);
  EXPECT_EQ(counts[1], 1u);
  EXPECT_EQ(counts[2], 2u);
  EXPECT_EQ(counts[3], 1u);
  EXPECT_EQ(h.summary().count(), 5u);
}

TEST(Histogram, RejectsUnsortedBoundaries) {
  EXPECT_THROW(Histogram({3.0, 1.0}), std::invalid_argument);
}

TEST(Histogram, Quantile) {
  Histogram h{{10.0, 20.0, 30.0}};
  for (int i = 0; i < 90; ++i) h.record(5.0);
  for (int i = 0; i < 10; ++i) h.record(25.0);
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 10.0);
  EXPECT_DOUBLE_EQ(h.quantile(0.95), 30.0);
}

TEST(Histogram, QuantileEmpty) {
  const Histogram h{{1.0}};
  EXPECT_EQ(h.quantile(0.99), 0.0);
}

}  // namespace
}  // namespace evps
