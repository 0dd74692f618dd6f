#include "stats/monte_carlo.h"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <span>
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

/// The closed form at one sample size.
MinSampleResult Exact(std::span<const std::int64_t> series,
                      std::size_t sample_size,
                      std::span<const double> margins = {}) {
  const std::size_t sizes[] = {sample_size};
  return ExactMinStatistics(series, sizes, margins).front();
}

TEST(MonteCarloTest, ExactFormulaSingleMinimum) {
  // One minimum among 1000: P(find with N=1) = 1/1000.
  std::vector<std::int64_t> series(1000, 2000);
  series[123] = 1000;
  EXPECT_NEAR(Exact(series, 1).prob_find_min, 0.001, 1e-12);
  // N=500 draws with replacement: 1 - (999/1000)^500.
  EXPECT_NEAR(Exact(series, 500).prob_find_min,
              1.0 - std::pow(0.999, 500.0), 1e-12);
}

TEST(MonteCarloTest, ExactProbFindMinIsExactlyKOverNAtNOne) {
  // 1 - (1 - 1/1000) rounds to 0.0010000000000000009, which a
  // "P <= 0.001" cut (Fig. 8's low-probability rows) would miss; at
  // N = 1 the closed form must return k/n itself, for any k.
  std::vector<std::int64_t> series(1000, 2000);
  series[500] = 1000;
  EXPECT_EQ(Exact(series, 1).prob_find_min, 1.0 / 1000.0);
  EXPECT_LE(Exact(series, 1).prob_find_min, 0.001);
  series[7] = 1000;
  series[900] = 1000;
  EXPECT_EQ(Exact(series, 1).prob_find_min, 3.0 / 1000.0);
  // Margins take the same path: values <= 1100 are the 3 minima.
  const double margins[] = {0.10};
  EXPECT_EQ(Exact(series, 1, margins).prob_within_margin[0], 0.003);
}

TEST(MonteCarloTest, ExactExpectedNormalizedMinTwoValues) {
  // Half 1000s, half 2000s. With N=1: E[min]=1500 -> normalized 1.5.
  std::vector<std::int64_t> series;
  for (int i = 0; i < 50; ++i) {
    series.push_back(1000);
    series.push_back(2000);
  }
  EXPECT_NEAR(Exact(series, 1).expected_norm_min, 1.5, 1e-12);
  // With N=2: P(min=2000) = 0.25 -> E = 0.75*1000 + 0.25*2000 = 1250.
  EXPECT_NEAR(Exact(series, 2).expected_norm_min, 1.25, 1e-12);
}

TEST(MonteCarloTest, ExactProbWithinMargin) {
  std::vector<std::int64_t> series = {1000, 1050, 1200, 2000};
  // 10% margin -> values <= 1100 qualify: {1000, 1050} = 2 of 4.
  // 0% margin -> only the minimum qualifies.
  const double margins[] = {0.10, 0.0};
  const MinSampleResult result = Exact(series, 1, margins);
  ASSERT_EQ(result.prob_within_margin.size(), 2u);
  EXPECT_NEAR(result.prob_within_margin[0], 0.5, 1e-12);
  EXPECT_NEAR(result.prob_within_margin[1], 0.25, 1e-12);
}

TEST(MonteCarloTest, ExactMinStatisticsOneResultPerSampleSize) {
  // Unsorted input; every N is derived from the one sort.
  const std::vector<std::int64_t> series = {2000, 1000, 1500, 1000};
  const std::size_t sizes[] = {1, 2, 1};
  const double margins[] = {0.5};
  const std::vector<MinSampleResult> results =
      ExactMinStatistics(series, sizes, margins);
  ASSERT_EQ(results.size(), 3u);
  for (std::size_t i = 0; i < results.size(); ++i) {
    EXPECT_EQ(results[i].sample_size, sizes[i]);
    EXPECT_EQ(results[i].iterations, 0u);
  }
  EXPECT_EQ(results[0].prob_find_min, 0.5);
  EXPECT_NEAR(results[1].prob_find_min, 0.75, 1e-12);
  // E[min] at N=1 is the series mean: 1375 / 1000.
  EXPECT_NEAR(results[0].expected_norm_min, 1.375, 1e-12);
  // Within 50%: {1000, 1000, 1500} = 3 of 4.
  EXPECT_EQ(results[0].prob_within_margin[0], 0.75);
  EXPECT_NEAR(results[1].prob_within_margin[0], 1.0 - 0.25 * 0.25, 1e-12);
  // Results depend only on N, not on position in the list.
  EXPECT_EQ(results[2].prob_find_min, results[0].prob_find_min);
  EXPECT_EQ(results[2].expected_norm_min, results[0].expected_norm_min);
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
  const MinSampleResult exact = Exact(series, n, margins);

  EXPECT_NEAR(mc.prob_find_min, exact.prob_find_min, 0.01);
  EXPECT_NEAR(mc.expected_norm_min, exact.expected_norm_min, 0.01);
  EXPECT_NEAR(mc.prob_within_margin[0], exact.prob_within_margin[0],
              0.01);
  EXPECT_NEAR(mc.prob_within_margin[1], exact.prob_within_margin[1],
              0.01);
}

INSTANTIATE_TEST_SUITE_P(SampleSizes, McVsExactTest,
                         ::testing::Values(1, 3, 5, 10, 50, 500));

TEST(MonteCarloTest, ProbabilitiesIncreaseWithN) {
  std::vector<std::int64_t> series;
  for (int i = 0; i < 1000; ++i) {
    series.push_back(4000 + (i * 37) % 1000);
  }
  const std::size_t sizes[] = {1, 5, 50, 500};
  double prev = 0.0;
  for (const MinSampleResult& result : ExactMinStatistics(series, sizes)) {
    EXPECT_GE(result.prob_find_min, prev);
    prev = result.prob_find_min;
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

  const std::size_t one[] = {1};
  const std::size_t zero[] = {0};
  EXPECT_THROW(ExactMinStatistics(empty, one), FatalError);
  EXPECT_THROW(ExactMinStatistics(series, zero), FatalError);
  EXPECT_THROW(ExactMinStatistics(nonpositive, one), FatalError);
}

}  // namespace
}  // namespace vrddram::stats
