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

// P(min of N draws <= t) when `at_or_below` of the n entries are <= t:
// each draw misses them with probability 1 - k/n. At N = 1 the value is
// k/n itself, which 1 - (1 - k/n) would round off.
double ProbAnyAtOrBelow(std::size_t at_or_below, std::size_t n,
                        std::size_t sample_size) {
  const double q =
      static_cast<double>(at_or_below) / static_cast<double>(n);
  if (sample_size == 1) {
    return q;
  }
  return 1.0 - std::pow(1.0 - q, static_cast<double>(sample_size));
}

}  // namespace

std::vector<MinSampleResult> ExactMinStatistics(
    std::span<const std::int64_t> series,
    std::span<const std::size_t> sample_sizes,
    std::span<const double> margins) {
  VRD_FATAL_IF(series.empty(), "empty series");
  std::vector<std::int64_t> sorted(series.begin(), series.end());
  std::sort(sorted.begin(), sorted.end());
  const std::size_t n = sorted.size();
  const std::int64_t series_min = sorted.front();
  VRD_FATAL_IF(series_min <= 0, "RDT values must be positive");
  const double mn = static_cast<double>(series_min);

  // `ends[d]` is one past the last entry equal to the d-th distinct
  // value, so the first ends[d] entries are <= that value.
  std::vector<std::size_t> ends;
  for (std::size_t i = 1; i < n; ++i) {
    if (sorted[i] != sorted[i - 1]) {
      ends.push_back(i);
    }
  }
  ends.push_back(n);
  // Entries within each margin, with the Monte Carlo's limit.
  std::vector<std::size_t> within(margins.size());
  for (std::size_t m = 0; m < margins.size(); ++m) {
    const double limit = (1.0 + margins[m]) * mn;
    within[m] = static_cast<std::size_t>(
        std::partition_point(sorted.begin(), sorted.end(),
                             [&](std::int64_t v) {
                               return static_cast<double>(v) <= limit;
                             }) -
        sorted.begin());
  }

  std::vector<MinSampleResult> out(sample_sizes.size());
  for (std::size_t i = 0; i < sample_sizes.size(); ++i) {
    const std::size_t sample_size = sample_sizes[i];
    VRD_FATAL_IF(sample_size == 0, "sample_size must be positive");
    MinSampleResult& result = out[i];
    result.sample_size = sample_size;
    result.prob_find_min = ProbAnyAtOrBelow(ends.front(), n, sample_size);
    // E[min] = sum over distinct values v of v * P(min == v), where
    // P(min == v) = P(min <= v) - P(min <= previous value).
    double expectation = 0.0;
    double prev_cdf = 0.0;
    std::size_t begin = 0;
    for (const std::size_t end : ends) {
      const double cdf = ProbAnyAtOrBelow(end, n, sample_size);
      expectation += static_cast<double>(sorted[begin]) * (cdf - prev_cdf);
      prev_cdf = cdf;
      begin = end;
    }
    result.expected_norm_min = expectation / mn;
    result.prob_within_margin.reserve(margins.size());
    for (const std::size_t k : within) {
      result.prob_within_margin.push_back(
          ProbAnyAtOrBelow(k, n, sample_size));
    }
  }
  return out;
}

}  // namespace vrddram::stats
