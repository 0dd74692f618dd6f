/**
 * @file
 * Cross-validation between independent implementations: the Appendix A
 * analytic TestTimeModel versus the command-level Device path, and the
 * Monte Carlo resampler versus its closed form on one series from every
 * catalog chip.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <iterator>
#include <vector>

#include "core/campaign.h"
#include "core/rdt_profiler.h"
#include "core/test_time_model.h"
#include "stats/monte_carlo.h"
#include "vrd/chip_catalog.h"

namespace vrddram {
namespace {

TEST(CrossValidationTest, TimeModelMatchesDeviceCommandPath) {
  // One RDT measurement = init 3 rows + hammer + read back. The
  // analytic model and the device's scheduler are written
  // independently; their durations must agree closely.
  dram::DeviceConfig config;
  config.org = dram::MakeDdr4Org(8, 8, 8);
  config.timing = dram::MakeDdr4_3200();
  config.seed = 5;
  config.has_trr = false;
  dram::Device device(config);

  const std::uint64_t hammers = 5000;
  const Tick t_on = device.timing().tRAS;
  const Tick start = device.Now();
  device.BulkInitializeRow(0, 99, 0x55);
  device.BulkInitializeRow(0, 98, 0xAA);
  device.BulkInitializeRow(0, 100, 0xAA);
  device.HammerDoubleSided(0, 99, hammers, t_on);
  device.Activate(0, 99);
  device.ReadRow(0, 99);
  device.Precharge(0);
  const double device_seconds = units::ToSeconds(device.Now() - start);

  const core::TestTimeModel model(dram::MakeDdr4_3200(),
                                  dram::MakeDdr5Currents(),
                                  /*bursts_per_row=*/128);
  const double model_seconds =
      model.MeasurementCost(hammers, t_on).seconds;

  EXPECT_NEAR(model_seconds / device_seconds, 1.0, 0.05)
      << "model " << model_seconds << " s vs device " << device_seconds
      << " s";
}

/// Variance of min(draw) / min(series) for N draws with replacement,
/// given its mean: the spread of one Monte Carlo iteration's value.
double NormMinVariance(std::vector<std::int64_t> series,
                       std::size_t sample_size, double mean) {
  std::sort(series.begin(), series.end());
  const auto n = static_cast<double>(series.size());
  const auto mn = static_cast<double>(series.front());
  double second_moment = 0.0;
  double prev_cdf = 0.0;
  for (std::size_t i = 0; i < series.size();) {
    std::size_t end = i;
    while (end < series.size() && series[end] == series[i]) {
      ++end;
    }
    const double cdf =
        1.0 - std::pow(1.0 - static_cast<double>(end) / n,
                       static_cast<double>(sample_size));
    const double x = static_cast<double>(series[i]) / mn;
    second_moment += x * x * (cdf - prev_cdf);
    prev_cdf = cdf;
    i = end;
  }
  return std::max(0.0, second_moment - mean * mean);
}

TEST(CrossValidationTest, MonteCarloMatchesClosedFormOnRealSeries) {
  // One 1000-measurement series from every catalog chip. Each Monte
  // Carlo estimate is the mean of `kIterations` i.i.d. per-iteration
  // values of known variance and range, so by Bernstein's inequality it
  // lies within `bound` of the closed form except with probability
  // 2·exp(-kLogTerm) = 1e-6 per comparison. The bound is about 5.4
  // standard errors plus a range term that, unlike a plain CLT
  // interval, covers a rare miss when a probability is near 0 or 1.
  constexpr std::size_t kIterations = 10000;
  const double kLogTerm = std::log(2.0 / 1e-6);
  core::CampaignConfig config;
  config.devices = vrd::AllDeviceNames();
  config.rows_per_device = 1;
  config.measurements = 1000;
  config.scan_rows_per_region = 64;
  const core::CampaignResult campaign = core::RunCampaign(config);
  // The first series of each chip (a chip yields one per region).
  std::vector<const core::SeriesRecord*> firsts;
  for (const core::SeriesRecord& record : campaign.records) {
    if (firsts.empty() || firsts.back()->device != record.device) {
      firsts.push_back(&record);
    }
  }
  ASSERT_EQ(firsts.size(), config.devices.size());

  const std::size_t sizes[] = {1, 5, 50, 500};
  const std::vector<double> margins = {0.10, 0.20, 0.30, 0.40, 0.50};
  const auto bound = [&](double variance, double range) {
    const double a = kLogTerm * range / 3.0;
    return (a + std::sqrt(a * a + 2.0 * kIterations * variance * kLogTerm)) /
           kIterations;
  };
  // A 0/1 indicator with mean p has variance p(1 - p) and range 1.
  const auto binomial_bound = [&](double p) {
    return bound(p * (1.0 - p), 1.0);
  };
  Rng rng(3);
  for (const core::SeriesRecord* record : firsts) {
    std::vector<std::int64_t> valid;
    for (const std::int64_t v : record->series) {
      if (v >= 0) {
        valid.push_back(v);
      }
    }
    ASSERT_FALSE(valid.empty()) << record->device;
    const auto [lo, hi] = std::minmax_element(valid.begin(), valid.end());
    const double norm_range =
        static_cast<double>(*hi) / static_cast<double>(*lo) - 1.0;
    const std::vector<stats::MinSampleResult> exact =
        stats::ExactMinStatistics(valid, sizes, margins);
    for (std::size_t i = 0; i < std::size(sizes); ++i) {
      SCOPED_TRACE(testing::Message()
                   << record->device << " N=" << sizes[i]);
      const stats::MinSampleResult mc = stats::SampleMinStatistics(
          valid, sizes[i], kIterations, rng, margins);
      const stats::MinSampleResult& want = exact[i];
      EXPECT_NEAR(mc.prob_find_min, want.prob_find_min,
                  binomial_bound(want.prob_find_min));
      EXPECT_NEAR(mc.expected_norm_min, want.expected_norm_min,
                  bound(NormMinVariance(valid, sizes[i],
                                        want.expected_norm_min),
                        norm_range));
      for (std::size_t m = 0; m < margins.size(); ++m) {
        EXPECT_NEAR(mc.prob_within_margin[m], want.prob_within_margin[m],
                    binomial_bound(want.prob_within_margin[m]))
            << "margin " << margins[m];
      }
    }
  }
}

TEST(CrossValidationTest, AnalyticSweepDurationMatchesBulkSweep) {
  // The analytic profiler sleeps for the duration the bulk sweep would
  // take; measure both on identical twins and compare.
  auto analytic_device = vrd::BuildDevice("S2", 77);
  auto bulk_device = vrd::BuildDevice("S2", 77);

  core::ProfilerConfig seed_pc;
  core::RdtProfiler seeder(*analytic_device, seed_pc);
  const auto victim = seeder.FindVictim(1, 4000);
  ASSERT_TRUE(victim.has_value());

  core::ProfilerConfig analytic_pc;
  analytic_pc.mode = core::SweepMode::kAnalytic;
  core::RdtProfiler analytic(*analytic_device, analytic_pc);
  core::ProfilerConfig bulk_pc;
  bulk_pc.mode = core::SweepMode::kBulk;
  core::RdtProfiler bulk(*bulk_device, bulk_pc);

  const Tick a0 = analytic_device->Now();
  const Tick b0 = bulk_device->Now();
  analytic.MeasureSeries(victim->row, victim->rdt_guess, 20);
  bulk.MeasureSeries(victim->row, victim->rdt_guess, 20);
  const double a_elapsed =
      units::ToSeconds(analytic_device->Now() - a0);
  const double b_elapsed = units::ToSeconds(bulk_device->Now() - b0);
  // Different random flip points shift where each sweep stops; the
  // totals still have to be the same order.
  EXPECT_NEAR(a_elapsed / b_elapsed, 1.0, 0.30)
      << a_elapsed << " vs " << b_elapsed;
}

}  // namespace
}  // namespace vrddram
