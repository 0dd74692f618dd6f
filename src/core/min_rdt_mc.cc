#include "core/min_rdt_mc.h"

#include <string>

#include "common/error.h"

namespace vrddram::core {

namespace {

/**
 * The filter/fork/task code behind every entry point. Filters each
 * series serially in series order. With `settings.iterations == 0` it
 * then fills each series' results from the closed form, serially and
 * without touching `rng`. Otherwise it forks each series' per-N streams
 * in the same loop and runs one job over series × sample sizes, on
 * `pool` when one is given and on `threads` workers otherwise; task t
 * resamples series t / K with sample size t % K (K sample sizes) and
 * writes only its own slot of `out`.
 */
void AnalyzeBatch(std::span<const std::span<const std::int64_t>> series,
                  const MinRdtSettings& settings, Rng& rng,
                  std::span<RowMinRdtResult> out, MinRdtScratch& scratch,
                  ThreadPool* pool, std::size_t threads) {
  const bool exact = settings.iterations == 0;
  // Fork labels depend only on the sample-size list; cache them so a
  // hoisted scratch builds the strings once per settings shape.
  if (!exact && scratch.labeled_sizes != settings.sample_sizes) {
    scratch.labels.clear();
    scratch.labels.reserve(settings.sample_sizes.size());
    for (const std::size_t n : settings.sample_sizes) {
      scratch.labels.push_back("minrdt/n=" + std::to_string(n));
    }
    scratch.labeled_sizes = settings.sample_sizes;
  }

  std::size_t total = 0;
  for (const std::span<const std::int64_t> s : series) {
    total += s.size();
  }
  std::vector<std::int64_t>& valid = scratch.valid;
  valid.clear();
  valid.reserve(total);
  scratch.row_end.clear();
  scratch.row_end.reserve(series.size());
  // Fork every task's stream up front (series order, then N order) so
  // the fan-out below never shares a generator, and the output does
  // not depend on the worker count.
  std::vector<Rng>& streams = scratch.streams;
  streams.clear();
  if (!exact) {
    streams.reserve(series.size() * scratch.labels.size());
  }
  for (const std::span<const std::int64_t> s : series) {
    const std::size_t begin = valid.size();
    for (const std::int64_t v : s) {
      if (v >= 0) {
        valid.push_back(v);
      }
    }
    VRD_FATAL_IF(valid.size() == begin,
                 "series has no flipping measurements");
    scratch.row_end.push_back(valid.size());
    if (!exact) {
      for (const std::string& label : scratch.labels) {
        streams.push_back(rng.Fork(label));
      }
    }
  }

  const auto row_valid = [&](std::size_t row) {
    const std::size_t begin = row == 0 ? 0 : scratch.row_end[row - 1];
    return std::span<const std::int64_t>(valid.data() + begin,
                                         scratch.row_end[row] - begin);
  };
  if (exact) {
    for (std::size_t row = 0; row < out.size(); ++row) {
      out[row].per_n = stats::ExactMinStatistics(
          row_valid(row), settings.sample_sizes, settings.margins);
    }
    return;
  }

  const std::size_t sizes = settings.sample_sizes.size();
  for (RowMinRdtResult& result : out) {
    result.per_n.resize(sizes);
  }
  const auto task = [&](std::size_t t) {
    const std::size_t row = t / sizes;
    const std::size_t i = t % sizes;
    out[row].per_n[i] = stats::SampleMinStatistics(
        row_valid(row), settings.sample_sizes[i], settings.iterations,
        streams[t], settings.margins);
  };
  if (pool != nullptr) {
    ParallelFor(pool, streams.size(), task);
  } else {
    ParallelForThreads(threads, streams.size(), task);
  }
}

}  // namespace

std::vector<RowMinRdtResult> AnalyzeRows(
    std::span<const SeriesRecord> records, const MinRdtSettings& settings,
    Rng& rng, std::size_t threads) {
  std::vector<std::span<const std::int64_t>> series;
  series.reserve(records.size());
  for (const SeriesRecord& record : records) {
    series.emplace_back(record.series);
  }
  std::vector<RowMinRdtResult> out(records.size());
  MinRdtScratch scratch;
  AnalyzeBatch(series, settings, rng, out, scratch, nullptr, threads);
  return out;
}

RowMinRdtResult AnalyzeRowSeries(std::span<const std::int64_t> series,
                                 const MinRdtSettings& settings,
                                 Rng& rng, ThreadPool* pool) {
  RowMinRdtResult out;
  MinRdtScratch scratch;
  AnalyzeRowSeries(series, settings, rng, out, scratch, pool);
  return out;
}

void AnalyzeRowSeries(std::span<const std::int64_t> series,
                      const MinRdtSettings& settings, Rng& rng,
                      RowMinRdtResult& out, MinRdtScratch& scratch,
                      ThreadPool* pool) {
  AnalyzeBatch({&series, 1}, settings, rng, {&out, 1}, scratch, pool,
               /*threads=*/1);
}

}  // namespace vrddram::core
