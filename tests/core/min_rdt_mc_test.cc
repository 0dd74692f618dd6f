#include "core/min_rdt_mc.h"

#include <gtest/gtest.h>

#include <bit>
#include <vector>

#include "common/error.h"
#include "core/campaign.h"

namespace vrddram::core {
namespace {

TEST(MinRdtMcTest, DefaultsMatchPaperProcedure) {
  // The paper's N values and margins; the default analysis is the
  // exact closed form (iterations == 0), Monte Carlo is the opt-in.
  const MinRdtSettings settings;
  EXPECT_EQ(settings.sample_sizes,
            (std::vector<std::size_t>{1, 3, 5, 10, 50, 500}));
  EXPECT_EQ(settings.iterations, 0u);
  EXPECT_EQ(settings.margins.size(), 5u);
}

TEST(MinRdtMcTest, SentinelsIgnored) {
  std::vector<std::int64_t> series(100, 1000);
  series[0] = -1;
  MinRdtSettings settings;
  settings.sample_sizes = {1};
  settings.iterations = 1000;
  Rng rng(5);
  const RowMinRdtResult result =
      AnalyzeRowSeries(series, settings, rng);
  ASSERT_EQ(result.per_n.size(), 1u);
  EXPECT_DOUBLE_EQ(result.per_n[0].prob_find_min, 1.0);
}

TEST(MinRdtMcTest, ProbabilityGrowsWithN) {
  std::vector<std::int64_t> series;
  for (int i = 0; i < 1000; ++i) {
    series.push_back(2000 + (i * 13) % 500);
  }
  MinRdtSettings settings;
  settings.iterations = 5000;
  Rng rng(6);
  const RowMinRdtResult result =
      AnalyzeRowSeries(series, settings, rng);
  for (std::size_t i = 1; i < result.per_n.size(); ++i) {
    EXPECT_GE(result.per_n[i].prob_find_min + 0.02,
              result.per_n[i - 1].prob_find_min);
  }
  // Expected normalized min decreases toward 1 with more samples.
  EXPECT_GE(result.per_n.front().expected_norm_min,
            result.per_n.back().expected_norm_min);
  EXPECT_GE(result.per_n.back().expected_norm_min, 1.0);
}

TEST(MinRdtMcTest, MarginsWidenTheTarget) {
  std::vector<std::int64_t> series;
  for (int i = 0; i < 200; ++i) {
    series.push_back(1000 + i * 5);  // 1000..1995
  }
  MinRdtSettings settings;
  settings.sample_sizes = {1};
  settings.iterations = 20000;
  Rng rng(7);
  const RowMinRdtResult result =
      AnalyzeRowSeries(series, settings, rng);
  const auto& margins = result.per_n[0].prob_within_margin;
  ASSERT_EQ(margins.size(), 5u);
  for (std::size_t i = 1; i < margins.size(); ++i) {
    EXPECT_GE(margins[i], margins[i - 1]);
  }
}

TEST(MinRdtMcTest, AllSentinelsThrow) {
  const std::vector<std::int64_t> series(10, -1);
  MinRdtSettings settings;
  Rng rng(8);
  EXPECT_THROW(AnalyzeRowSeries(series, settings, rng), FatalError);
}

/// A small multi-device campaign's records; one series carries kNoFlip
/// sentinels so the filter step has something to drop.
std::vector<SeriesRecord> SmallCampaignRecords() {
  CampaignConfig config;
  config.devices = {"M1", "S2"};
  config.rows_per_device = 3;
  config.measurements = 40;
  config.scan_rows_per_region = 32;
  std::vector<SeriesRecord> records = RunCampaign(config).records;
  EXPECT_GE(records.size(), 4u);
  records[1].series[0] = kNoFlip;
  records[1].series[7] = kNoFlip;
  return records;
}

void ExpectBitEqual(const RowMinRdtResult& a, const RowMinRdtResult& b) {
  ASSERT_EQ(a.per_n.size(), b.per_n.size());
  for (std::size_t i = 0; i < a.per_n.size(); ++i) {
    const stats::MinSampleResult& x = a.per_n[i];
    const stats::MinSampleResult& y = b.per_n[i];
    EXPECT_EQ(x.sample_size, y.sample_size);
    EXPECT_EQ(x.iterations, y.iterations);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(x.prob_find_min),
              std::bit_cast<std::uint64_t>(y.prob_find_min));
    EXPECT_EQ(std::bit_cast<std::uint64_t>(x.expected_norm_min),
              std::bit_cast<std::uint64_t>(y.expected_norm_min));
    ASSERT_EQ(x.prob_within_margin.size(), y.prob_within_margin.size());
    for (std::size_t m = 0; m < x.prob_within_margin.size(); ++m) {
      EXPECT_EQ(std::bit_cast<std::uint64_t>(x.prob_within_margin[m]),
                std::bit_cast<std::uint64_t>(y.prob_within_margin[m]));
    }
  }
}

TEST(MinRdtMcTest, AnalyzeRowsMatchesPerRecordLoopAtAnyThreads) {
  // The golden contract of the rows x N fan-out: at every worker count
  // AnalyzeRows returns, bit for bit, what a per-record AnalyzeRowSeries
  // loop over the same stream returns, and leaves the stream in the
  // same state.
  const std::vector<SeriesRecord> records = SmallCampaignRecords();
  MinRdtSettings settings;
  settings.sample_sizes = {1, 5, 50};
  settings.iterations = 300;
  settings.margins = {0.10, 0.30};

  Rng reference_rng(77);
  std::vector<RowMinRdtResult> reference;
  for (const SeriesRecord& record : records) {
    reference.push_back(
        AnalyzeRowSeries(record.series, settings, reference_rng));
  }
  const std::uint64_t reference_next = reference_rng.Next();

  // The scratch overload on a pool runs the same code.
  {
    ThreadPool pool(3);
    Rng rng(77);
    RowMinRdtResult out;
    MinRdtScratch scratch;
    for (std::size_t r = 0; r < records.size(); ++r) {
      AnalyzeRowSeries(records[r].series, settings, rng, out, scratch,
                       &pool);
      ExpectBitEqual(out, reference[r]);
    }
    EXPECT_EQ(rng.Next(), reference_next);
  }

  for (const std::size_t threads :
       {std::size_t{1}, std::size_t{2}, std::size_t{8}}) {
    Rng rng(77);
    const std::vector<RowMinRdtResult> batch =
        AnalyzeRows(records, settings, rng, threads);
    ASSERT_EQ(batch.size(), records.size()) << "threads=" << threads;
    for (std::size_t r = 0; r < records.size(); ++r) {
      SCOPED_TRACE(testing::Message()
                   << "threads=" << threads << " record=" << r);
      ExpectBitEqual(batch[r], reference[r]);
    }
    EXPECT_EQ(rng.Next(), reference_next) << "threads=" << threads;
  }
}

TEST(MinRdtMcTest, ExactAnalyzeRowsLeavesRngUntouched) {
  // iterations == 0 filters the sentinels and takes the closed form per
  // record, at any worker count, without drawing from or forking `rng`.
  const std::vector<SeriesRecord> records = SmallCampaignRecords();
  MinRdtSettings settings;
  settings.margins = {0.10, 0.30};
  const std::uint64_t untouched_next = Rng(77).Next();
  for (const std::size_t threads : {std::size_t{1}, std::size_t{8}}) {
    Rng rng(77);
    const std::vector<RowMinRdtResult> batch =
        AnalyzeRows(records, settings, rng, threads);
    EXPECT_EQ(rng.Next(), untouched_next) << "threads=" << threads;
    ASSERT_EQ(batch.size(), records.size());
    for (std::size_t r = 0; r < records.size(); ++r) {
      std::vector<std::int64_t> valid;
      for (const std::int64_t v : records[r].series) {
        if (v != kNoFlip) {
          valid.push_back(v);
        }
      }
      RowMinRdtResult want;
      want.per_n = stats::ExactMinStatistics(valid, settings.sample_sizes,
                                             settings.margins);
      SCOPED_TRACE(testing::Message()
                   << "threads=" << threads << " record=" << r);
      ExpectBitEqual(batch[r], want);
    }
  }
}

TEST(MinRdtMcTest, AnalyzeRowsAllSentinelRowThrows) {
  std::vector<SeriesRecord> records = SmallCampaignRecords();
  records[2].series.assign(records[2].series.size(), kNoFlip);
  MinRdtSettings settings;
  for (const std::size_t iterations : {std::size_t{0}, std::size_t{50}}) {
    settings.iterations = iterations;
    for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
      Rng rng(9);
      EXPECT_THROW(AnalyzeRows(records, settings, rng, threads),
                   FatalError)
          << "iterations=" << iterations << " threads=" << threads;
    }
  }
}

}  // namespace
}  // namespace vrddram::core
