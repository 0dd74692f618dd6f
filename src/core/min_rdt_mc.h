/**
 * @file
 * Minimum-RDT identification analysis (§5.1, Figs. 8, 15, 25): for
 * each measurement series, the probability of finding the series
 * minimum (optionally within a safety margin) with N < series length
 * measurements, and the expected normalized value of the minimum
 * found. By default the statistics are computed in closed form
 * (stats::ExactMinStatistics); a positive `iterations` estimates them
 * by the paper's Monte Carlo resampling instead.
 */
#ifndef VRDDRAM_CORE_MIN_RDT_MC_H
#define VRDDRAM_CORE_MIN_RDT_MC_H

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "core/campaign.h"
#include "stats/monte_carlo.h"

namespace vrddram::core {

struct MinRdtSettings {
  /// The paper's N values.
  std::vector<std::size_t> sample_sizes = {1, 3, 5, 10, 50, 500};
  /// 0 = exact closed form; N > 0 = Monte Carlo with N iterations per
  /// (row, N) pair (paper: 10,000).
  std::size_t iterations = 0;
  /// Safety margins for Fig. 15 (fractions of the minimum RDT).
  std::vector<double> margins = {0.10, 0.20, 0.30, 0.40, 0.50};
};

/// Per-series results, one entry per sample size.
struct RowMinRdtResult {
  std::vector<stats::MinSampleResult> per_n;
};

/**
 * Analyze every record's series (kNoFlip sentinels removed) for each
 * configured N, returning one result per record in record order. First,
 * serially in record order, each series is filtered; a series with no
 * flipping measurement throws FatalError.
 *
 * With `settings.iterations == 0` each series then gets the closed-form
 * statistics, serially; `rng` is not used and `threads` is ignored.
 *
 * With `settings.iterations > 0` (Monte Carlo), the filter loop also
 * forks one child stream "minrdt/n=<N>" from `rng` per sample size, in
 * N order. Then one ParallelFor runs the records × sample-size tasks,
 * each drawing from its own stream and writing its own slot, so the
 * results and `rng`'s final state are bit-identical to a per-record
 * AnalyzeRowSeries loop at any `threads`. `threads` follows
 * CampaignConfig::threads (0 = all hardware threads, 1 = inline); the
 * pool is capped at the task count.
 */
std::vector<RowMinRdtResult> AnalyzeRows(
    std::span<const SeriesRecord> records, const MinRdtSettings& settings,
    Rng& rng, std::size_t threads);

/**
 * The one-series case of AnalyzeRows, through the same filter/fork/task
 * code: the Monte Carlo per-N tasks run on `pool` when it is given,
 * inline otherwise, with identical results either way.
 */
RowMinRdtResult AnalyzeRowSeries(std::span<const std::int64_t> series,
                                 const MinRdtSettings& settings, Rng& rng,
                                 ThreadPool* pool = nullptr);

/**
 * Reusable working storage for the min-RDT analysis: the filtered
 * series (concatenated, one `row_end` offset per series) and, for the
 * Monte Carlo path, the per-task child streams and the fork labels
 * (cached per sample-size list, so repeated calls build no strings).
 * Hoist one instance across a record loop and the Monte Carlo path of
 * AnalyzeRowSeries stops allocating once every buffer reaches its
 * high-water capacity.
 */
struct MinRdtScratch {
  std::vector<std::int64_t> valid;
  std::vector<std::size_t> row_end;  ///< end of each series in `valid`
  std::vector<Rng> streams;          ///< series-major, then N order
  std::vector<std::string> labels;
  std::vector<std::size_t> labeled_sizes;  ///< sample sizes labels match
};

/// Scratch overload, kept for callers that hoist their buffers across a
/// record loop (the perfbench min-RDT probe): identical results to the
/// value-returning form, writing into `out` and drawing working storage
/// from `scratch`.
void AnalyzeRowSeries(std::span<const std::int64_t> series,
                      const MinRdtSettings& settings, Rng& rng,
                      RowMinRdtResult& out, MinRdtScratch& scratch,
                      ThreadPool* pool = nullptr);

}  // namespace vrddram::core

#endif  // VRDDRAM_CORE_MIN_RDT_MC_H
