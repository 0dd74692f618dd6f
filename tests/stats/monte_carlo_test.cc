#include "stats/monte_carlo.h"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <vector>

#include "common/error.h"

namespace vrddram::stats {
namespace {

TEST(MonteCarloTest, DegenerateSeriesAlwaysFindsMin) {
  const std::vector<std::int64_t> series(100, 500);
  Rng rng(1);
  const MinSampleResult result =
      SampleMinStatistics(series, 1, 1000, rng);
  EXPECT_DOUBLE_EQ(result.prob_find_min, 1.0);
  EXPECT_DOUBLE_EQ(result.expected_norm_min, 1.0);
}

TEST(MonteCarloTest, KnownAnswerWithMargins) {
  // Bit patterns recorded before the per-margin limits were hoisted out
  // of the iteration loop and the RNG draw was made inline; the next
  // draw pins how many raw outputs the resampling consumed.
  std::vector<std::int64_t> series;
  for (int i = 0; i < 200; ++i) {
    series.push_back(1000 + (i * 37) % 311);
  }
  const std::vector<double> margins = {0.10, 0.20, 0.30};
  Rng rng(2025);
  const MinSampleResult result =
      SampleMinStatistics(series, 5, 1000, rng, margins);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(result.prob_find_min),
            0x3f9db22d0e560419ull);  // 0.029
  EXPECT_EQ(std::bit_cast<std::uint64_t>(result.expected_norm_min),
            0x3ff0dac79702e666ull);  // 1.053413...
  ASSERT_EQ(result.prob_within_margin.size(), 3u);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(result.prob_within_margin[0]),
            0x3feb74bc6a7ef9dbull);  // 0.858
  EXPECT_EQ(std::bit_cast<std::uint64_t>(result.prob_within_margin[1]),
            0x3fefc6a7ef9db22dull);  // 0.993
  EXPECT_EQ(std::bit_cast<std::uint64_t>(result.prob_within_margin[2]),
            0x3ff0000000000000ull);  // 1.0
  EXPECT_EQ(rng.Next(), 0xa9b5d9030d8dcbb2ull);
}

TEST(MonteCarloTest, ExactFormulaSingleMinimum) {
  // One minimum among 1000: P(find with N=1) = 1/1000.
  std::vector<std::int64_t> series(1000, 2000);
  series[123] = 1000;
  EXPECT_NEAR(ExactProbFindMin(series, 1), 0.001, 1e-12);
  // N=500 draws with replacement: 1 - (999/1000)^500.
  EXPECT_NEAR(ExactProbFindMin(series, 500),
              1.0 - std::pow(0.999, 500.0), 1e-12);
}

TEST(MonteCarloTest, ExactExpectedNormalizedMinTwoValues) {
  // Half 1000s, half 2000s. With N=1: E[min]=1500 -> normalized 1.5.
  std::vector<std::int64_t> series;
  for (int i = 0; i < 50; ++i) {
    series.push_back(1000);
    series.push_back(2000);
  }
  EXPECT_NEAR(ExactExpectedNormalizedMin(series, 1), 1.5, 1e-12);
  // With N=2: P(min=2000) = 0.25 -> E = 0.75*1000 + 0.25*2000 = 1250.
  EXPECT_NEAR(ExactExpectedNormalizedMin(series, 2), 1.25, 1e-12);
}

TEST(MonteCarloTest, ExactProbWithinMargin) {
  std::vector<std::int64_t> series = {1000, 1050, 1200, 2000};
  // 10% margin -> values <= 1100 qualify: {1000, 1050} = 2 of 4.
  EXPECT_NEAR(ExactProbWithinMargin(series, 1, 0.10), 0.5, 1e-12);
  // 0% margin -> only the minimum qualifies.
  EXPECT_NEAR(ExactProbWithinMargin(series, 1, 0.0), 0.25, 1e-12);
}

class McVsExactTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(McVsExactTest, MonteCarloMatchesClosedForm) {
  // A heterogeneous series with a rare minimum.
  std::vector<std::int64_t> series;
  for (int i = 0; i < 300; ++i) {
    series.push_back(5000 + (i % 17) * 50);
  }
  series[42] = 3000;
  series[271] = 3000;

  const std::size_t n = GetParam();
  Rng rng(777);
  const std::vector<double> margins = {0.10, 0.50};
  const MinSampleResult mc =
      SampleMinStatistics(series, n, 40000, rng, margins);

  EXPECT_NEAR(mc.prob_find_min, ExactProbFindMin(series, n), 0.01);
  EXPECT_NEAR(mc.expected_norm_min,
              ExactExpectedNormalizedMin(series, n), 0.01);
  EXPECT_NEAR(mc.prob_within_margin[0],
              ExactProbWithinMargin(series, n, 0.10), 0.01);
  EXPECT_NEAR(mc.prob_within_margin[1],
              ExactProbWithinMargin(series, n, 0.50), 0.01);
}

INSTANTIATE_TEST_SUITE_P(SampleSizes, McVsExactTest,
                         ::testing::Values(1, 3, 5, 10, 50, 500));

TEST(MonteCarloTest, ProbabilitiesIncreaseWithN) {
  std::vector<std::int64_t> series;
  for (int i = 0; i < 1000; ++i) {
    series.push_back(4000 + (i * 37) % 1000);
  }
  double prev = 0.0;
  for (const std::size_t n : {1u, 5u, 50u, 500u}) {
    const double p = ExactProbFindMin(series, n);
    EXPECT_GE(p, prev);
    prev = p;
  }
}

TEST(MonteCarloTest, InvalidInputsThrow) {
  const std::vector<std::int64_t> empty;
  Rng rng(1);
  EXPECT_THROW(SampleMinStatistics(empty, 1, 10, rng), FatalError);
  const std::vector<std::int64_t> series = {100};
  EXPECT_THROW(SampleMinStatistics(series, 0, 10, rng), FatalError);
  EXPECT_THROW(SampleMinStatistics(series, 1, 0, rng), FatalError);
  const std::vector<std::int64_t> nonpositive = {0, 5};
  EXPECT_THROW(SampleMinStatistics(nonpositive, 1, 10, rng), FatalError);
}

}  // namespace
}  // namespace vrddram::stats
