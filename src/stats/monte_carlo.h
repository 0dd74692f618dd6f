/**
 * @file
 * The minimum-finding statistics of §5.1 ("Probability of Identifying
 * the Minimum RDT"): uniformly draw N of the 1,000 measurements and
 * study the minimum of the draw relative to the minimum of the full
 * series. ExactMinStatistics computes them in closed form;
 * SampleMinStatistics estimates them by resampling, the paper's Monte
 * Carlo method.
 */
#ifndef VRDDRAM_STATS_MONTE_CARLO_H
#define VRDDRAM_STATS_MONTE_CARLO_H

#include <cstdint>
#include <span>
#include <vector>

#include "common/rng.h"

namespace vrddram::stats {

/// Outcome of resampling one series with one sample size N.
struct MinSampleResult {
  std::size_t sample_size = 0;     ///< N measurements per iteration.
  /// Monte Carlo iterations (paper: 10k); 0 for the exact closed form.
  std::size_t iterations = 0;
  double prob_find_min = 0.0;      ///< P(min of draw == min of series).
  double expected_norm_min = 0.0;  ///< E[min of draw] / min of series.
  /// P(min of draw <= (1 + margin) * min of series), one entry per
  /// requested margin (Fig. 15's safety margins).
  std::vector<double> prob_within_margin;
};

/**
 * Monte Carlo estimate of the minimum-finding statistics for one
 * series. `margins` are relative safety margins (e.g. 0.10 for 10%).
 * Draws are uniform with replacement, matching the paper's
 * "uniformly randomly select N RDT measurements" procedure.
 */
MinSampleResult SampleMinStatistics(std::span<const std::int64_t> series,
                                    std::size_t sample_size,
                                    std::size_t iterations, Rng& rng,
                                    std::span<const double> margins = {});

/**
 * Exact (closed-form) values of the statistics SampleMinStatistics
 * estimates, under the same model of N i.i.d. uniform draws with
 * replacement: one result per entry of `sample_sizes`, in order, with
 * `iterations = 0`. The series is sorted once; if k entries are at or
 * below a threshold, P(min of draw <= threshold) = 1 - (1 - k/n)^N
 * (exactly k/n at N = 1), which gives P(find min) and each margin's
 * probability, and E[min of draw] is a sum over the distinct values.
 */
std::vector<MinSampleResult> ExactMinStatistics(
    std::span<const std::int64_t> series,
    std::span<const std::size_t> sample_sizes,
    std::span<const double> margins = {});

}  // namespace vrddram::stats

#endif  // VRDDRAM_STATS_MONTE_CARLO_H
