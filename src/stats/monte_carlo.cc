#include "stats/monte_carlo.h"

#include <algorithm>
#include <cmath>

#include "common/error.h"

namespace vrddram::stats {

MinSampleResult SampleMinStatistics(std::span<const std::int64_t> series,
                                    std::size_t sample_size,
                                    std::size_t iterations, Rng& rng,
                                    std::span<const double> margins) {
  VRD_FATAL_IF(series.empty(), "resampling an empty series");
  VRD_FATAL_IF(sample_size == 0, "sample_size must be positive");
  VRD_FATAL_IF(iterations == 0, "iterations must be positive");

  const std::int64_t series_min =
      *std::min_element(series.begin(), series.end());
  VRD_FATAL_IF(series_min <= 0, "RDT values must be positive");

  MinSampleResult out;
  out.sample_size = sample_size;
  out.iterations = iterations;
  out.prob_within_margin.assign(margins.size(), 0.0);

  std::uint64_t hits = 0;
  double norm_min_sum = 0.0;
  std::vector<std::uint64_t> margin_hits(margins.size(), 0);
  // Each margin's limit is the same double on every iteration; compute
  // it once.
  std::vector<double> limits(margins.size());
  for (std::size_t m = 0; m < margins.size(); ++m) {
    limits[m] = (1.0 + margins[m]) * static_cast<double>(series_min);
  }

  for (std::size_t it = 0; it < iterations; ++it) {
    std::int64_t draw_min = series[rng.NextBelow(series.size())];
    for (std::size_t j = 1; j < sample_size; ++j) {
      draw_min = std::min(draw_min, series[rng.NextBelow(series.size())]);
    }
    if (draw_min == series_min) {
      ++hits;
    }
    norm_min_sum += static_cast<double>(draw_min) /
                    static_cast<double>(series_min);
    for (std::size_t m = 0; m < margins.size(); ++m) {
      if (static_cast<double>(draw_min) <= limits[m]) {
        ++margin_hits[m];
      }
    }
  }

  out.prob_find_min =
      static_cast<double>(hits) / static_cast<double>(iterations);
  out.expected_norm_min = norm_min_sum / static_cast<double>(iterations);
  for (std::size_t m = 0; m < margins.size(); ++m) {
    out.prob_within_margin[m] =
        static_cast<double>(margin_hits[m]) /
        static_cast<double>(iterations);
  }
  return out;
}

namespace {

// P(all N draws land strictly above `threshold_count` of the n values).
// With draws uniform over the n series entries, a draw avoids a set of
// k entries with probability (1 - k/n) each time.
double ProbAllAbove(std::size_t avoid_count, std::size_t n,
                    std::size_t sample_size) {
  const double p_avoid = 1.0 - static_cast<double>(avoid_count) /
                               static_cast<double>(n);
  return std::pow(p_avoid, static_cast<double>(sample_size));
}

}  // namespace

double ExactProbFindMin(std::span<const std::int64_t> series,
                        std::size_t sample_size) {
  VRD_FATAL_IF(series.empty(), "empty series");
  const std::int64_t mn = *std::min_element(series.begin(), series.end());
  const auto k = static_cast<std::size_t>(
      std::count(series.begin(), series.end(), mn));
  return 1.0 - ProbAllAbove(k, series.size(), sample_size);
}

double ExactExpectedNormalizedMin(std::span<const std::int64_t> series,
                                  std::size_t sample_size) {
  VRD_FATAL_IF(series.empty(), "empty series");
  // E[min] = sum over distinct values v of v * P(min == v). Using the
  // sorted empirical distribution: P(min > v) = ((#entries > v)/n)^N.
  std::vector<std::int64_t> sorted(series.begin(), series.end());
  std::sort(sorted.begin(), sorted.end());
  const std::size_t n = sorted.size();
  const double mn = static_cast<double>(sorted.front());
  VRD_FATAL_IF(mn <= 0.0, "RDT values must be positive");

  double expectation = 0.0;
  std::size_t i = 0;
  double prev_tail = 1.0;  // P(min > -inf) = 1
  while (i < n) {
    std::size_t j = i;
    while (j < n && sorted[j] == sorted[i]) {
      ++j;
    }
    // P(min > sorted[i]) = ((n - j)/n)^N.
    const double tail = ProbAllAbove(j, n, sample_size);
    const double p_equal = prev_tail - tail;
    expectation += static_cast<double>(sorted[i]) * p_equal;
    prev_tail = tail;
    i = j;
  }
  return expectation / mn;
}

double ExactProbWithinMargin(std::span<const std::int64_t> series,
                             std::size_t sample_size, double margin) {
  VRD_FATAL_IF(series.empty(), "empty series");
  VRD_FATAL_IF(margin < 0.0, "margin must be non-negative");
  const std::int64_t mn = *std::min_element(series.begin(), series.end());
  const double limit = (1.0 + margin) * static_cast<double>(mn);
  const auto k = static_cast<std::size_t>(std::count_if(
      series.begin(), series.end(),
      [&](std::int64_t v) { return static_cast<double>(v) <= limit; }));
  return 1.0 - ProbAllAbove(k, series.size(), sample_size);
}

}  // namespace vrddram::stats
