#include "stats.hpp"

#include <gtest/gtest.h>

#include <numeric>

namespace {

std::vector<double> one_to(std::size_t n) {
  std::vector<double> v(n);
  std::iota(v.begin(), v.end(), 1.0);
  return v;
}

TEST(Percentile, NearestRankOnSortedInput) {
  const perf::Percentile p50 = perf::percentile(one_to(100), 0.5);
  EXPECT_TRUE(p50.ok);
  EXPECT_EQ(p50.value, 50.0);
  EXPECT_EQ(p50.samples, 100u);
  EXPECT_EQ(p50.beyond, 50u);
}

TEST(Percentile, IgnoresInputOrder) {
  std::vector<double> v = one_to(1000);
  std::reverse(v.begin(), v.end());
  const perf::Percentile p99 = perf::percentile(v, 0.99);
  EXPECT_TRUE(p99.ok);
  EXPECT_EQ(p99.value, 990.0);
  EXPECT_EQ(p99.beyond, 10u);
}

TEST(Percentile, P90NeedsOneHundredSamples) {
  EXPECT_TRUE(perf::percentile(one_to(100), 0.9).ok);
  const perf::Percentile short_p90 = perf::percentile(one_to(99), 0.9);
  EXPECT_FALSE(short_p90.ok);
  EXPECT_EQ(short_p90.beyond, 9u);
  EXPECT_EQ(short_p90.value, 0.0);
}

TEST(Percentile, P99NeedsOneThousandSamples) {
  EXPECT_TRUE(perf::percentile(one_to(1000), 0.99).ok);
  EXPECT_FALSE(perf::percentile(one_to(999), 0.99).ok);
}

TEST(Percentile, RefusesEmptyAndOutOfRange) {
  EXPECT_FALSE(perf::percentile({}, 0.5).ok);
  EXPECT_FALSE(perf::percentile(one_to(100), 0.0).ok);
  EXPECT_FALSE(perf::percentile(one_to(100), 1.5).ok);
}

TEST(NsHistogram, MatchesSortedPercentiles) {
  perf::NsHistogram h;
  std::vector<double> seconds;
  for (int i = 1; i <= 1000; ++i) {
    // 37 ns steps, with the top 1% beyond the counted range.
    const double s = i <= 990 ? i * 37e-9 : 0.001 * i;
    h.add_seconds(s);
    seconds.push_back(s * 1e9);
  }
  for (double q : {0.5, 0.9, 0.99}) {
    const perf::Percentile want = perf::percentile(seconds, q);
    const perf::Percentile got = h.percentile_ns(q);
    EXPECT_TRUE(got.ok);
    EXPECT_NEAR(got.value, want.value, 0.5) << q;
    EXPECT_EQ(got.beyond, want.beyond) << q;
  }
  EXPECT_EQ(h.count(), 1000u);
  double sum = 0.0;
  for (double ns : seconds) sum += std::round(ns);
  EXPECT_NEAR(h.mean_ns(), sum / 1000.0, 1e-6);
}

TEST(NsHistogram, SlowSamplesRankAboveCounted) {
  perf::NsHistogram h;
  for (int i = 0; i < 20; ++i) h.add_seconds(1.0);  // far beyond the range
  for (int i = 0; i < 80; ++i) h.add_seconds(5e-6);
  EXPECT_EQ(h.percentile_ns(0.5).value, 5000.0);
  const perf::Percentile p85 = h.percentile_ns(0.85);
  EXPECT_TRUE(p85.ok);
  EXPECT_EQ(p85.value, 1e9);
}

TEST(NsHistogram, GuardsLikePercentile) {
  perf::NsHistogram h;
  for (int i = 0; i < 999; ++i) h.add_seconds(1e-6);
  EXPECT_FALSE(h.percentile_ns(0.99).ok);
  h.add_seconds(1e-6);
  EXPECT_TRUE(h.percentile_ns(0.99).ok);
  EXPECT_FALSE(perf::NsHistogram().percentile_ns(0.5).ok);
}

TEST(Median, OddAndEvenCounts) {
  EXPECT_EQ(perf::median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_EQ(perf::median({4.0, 1.0, 3.0, 2.0}), 2.5);
  EXPECT_EQ(perf::median({}), 0.0);
}

}  // namespace
