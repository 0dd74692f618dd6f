#include "core/guardband.h"

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "common/error.h"

namespace vrddram::core {
namespace {

GuardbandConfig TinyConfig() {
  GuardbandConfig config;
  config.devices = {"M1"};
  config.rows_per_device = 3;
  config.trials = 400;
  config.patterns = {dram::DataPattern::kCheckered0};
  config.scan_rows_per_region = 32;
  return config;
}

TEST(GuardbandTest, SmallerMarginsFlipAtLeastAsManyCells) {
  const auto outcomes = RunGuardbandStudy(TinyConfig());
  ASSERT_FALSE(outcomes.empty());
  std::size_t at_largest_margin = 0;
  std::size_t at_smallest_margin = 0;
  for (const RowGuardbandOutcome& outcome : outcomes) {
    EXPECT_GT(outcome.min_rdt, 0u);
    ASSERT_EQ(outcome.per_margin.size(), 5u);
    // Margins are ordered 0.5 ... 0.1: in aggregate, shrinking the
    // margin (hammering closer to the min RDT) flips at least as many
    // unique cells.
    at_largest_margin += outcome.per_margin.front().unique_bitflips;
    at_smallest_margin += outcome.per_margin.back().unique_bitflips;
  }
  EXPECT_GE(at_smallest_margin, at_largest_margin);
}

TEST(GuardbandTest, HammerCountsMatchMargins) {
  const auto outcomes = RunGuardbandStudy(TinyConfig());
  ASSERT_FALSE(outcomes.empty());
  for (const RowGuardbandOutcome& outcome : outcomes) {
    for (const MarginOutcome& per : outcome.per_margin) {
      const auto expected = static_cast<std::uint64_t>(
          static_cast<double>(outcome.min_rdt) * (1.0 - per.margin));
      EXPECT_EQ(per.hammer_count, expected);
    }
  }
}

TEST(GuardbandTest, CodewordCountsBoundedByBitflips) {
  const auto outcomes = RunGuardbandStudy(TinyConfig());
  for (const RowGuardbandOutcome& outcome : outcomes) {
    for (const MarginOutcome& per : outcome.per_margin) {
      EXPECT_LE(per.max_per_secded_codeword, per.unique_bitflips);
      EXPECT_LE(per.max_per_chipkill_codeword, per.unique_bitflips);
      EXPECT_LE(per.chips_touched, per.unique_bitflips);
      if (per.unique_bitflips > 0) {
        EXPECT_GE(per.chips_touched, 1u);
        EXPECT_GE(per.max_per_secded_codeword, 1u);
      }
    }
  }
}

TEST(GuardbandTest, HistogramAndBerHelpers) {
  const auto outcomes = RunGuardbandStudy(TinyConfig());
  const auto hist = BitflipHistogramAtMargin(outcomes, 0.10);
  std::size_t rows_in_hist = 0;
  for (const auto& [bitflips, count] : hist) {
    rows_in_hist += count;
  }
  EXPECT_EQ(rows_in_hist, outcomes.size());

  const double ber = WorstBitErrorRate(outcomes, 0.10, 65536);
  EXPECT_GE(ber, 0.0);
  EXPECT_LT(ber, 0.01);
  EXPECT_THROW(WorstBitErrorRate(outcomes, 0.10, 0), FatalError);
}

TEST(GuardbandTest, ParallelMatchesSerialAtAnyThreads) {
  // One task per device: outcomes and progress lines must come back in
  // device order with the serial run's values, whatever the workers.
  GuardbandConfig config;
  config.devices = {"M1", "S2", "H1"};
  config.rows_per_device = 3;
  config.trials = 300;
  config.scan_rows_per_region = 32;
  const auto run = [&](std::size_t threads, std::string* progress) {
    GuardbandConfig c = config;
    c.threads = threads;
    std::ostringstream out;
    const std::vector<RowGuardbandOutcome> outcomes =
        RunGuardbandStudy(c, &out);
    *progress = out.str();
    return outcomes;
  };
  std::string serial_progress;
  const auto serial = run(1, &serial_progress);
  ASSERT_FALSE(serial.empty());
  EXPECT_EQ(serial_progress.find("guardband: M1, "), 0u) << serial_progress;
  EXPECT_LT(serial_progress.find("guardband: S2, "),
            serial_progress.find("guardband: H1, "));
  for (const std::size_t threads : {std::size_t{2}, std::size_t{8}}) {
    std::string progress;
    const auto parallel = run(threads, &progress);
    EXPECT_EQ(progress, serial_progress) << threads;
    ASSERT_EQ(parallel.size(), serial.size()) << threads;
    for (std::size_t i = 0; i < serial.size(); ++i) {
      const RowGuardbandOutcome& a = serial[i];
      const RowGuardbandOutcome& b = parallel[i];
      EXPECT_EQ(b.device, a.device) << threads << " #" << i;
      EXPECT_EQ(b.row, a.row) << threads << " #" << i;
      EXPECT_EQ(b.pattern, a.pattern) << threads << " #" << i;
      EXPECT_EQ(b.min_rdt, a.min_rdt) << threads << " #" << i;
      ASSERT_EQ(b.per_margin.size(), a.per_margin.size());
      for (std::size_t m = 0; m < a.per_margin.size(); ++m) {
        const MarginOutcome& x = a.per_margin[m];
        const MarginOutcome& y = b.per_margin[m];
        EXPECT_EQ(y.margin, x.margin);
        EXPECT_EQ(y.hammer_count, x.hammer_count);
        EXPECT_EQ(y.unique_bitflips, x.unique_bitflips);
        EXPECT_EQ(y.chips_touched, x.chips_touched);
        EXPECT_EQ(y.max_per_secded_codeword, x.max_per_secded_codeword);
        EXPECT_EQ(y.max_per_chipkill_codeword,
                  x.max_per_chipkill_codeword);
        EXPECT_EQ(y.trials_with_flips, x.trials_with_flips);
      }
    }
  }
}

TEST(GuardbandTest, InvalidConfigsThrow) {
  GuardbandConfig bad;
  EXPECT_THROW(RunGuardbandStudy(bad), FatalError);
  GuardbandConfig no_trials = TinyConfig();
  no_trials.trials = 0;
  EXPECT_THROW(RunGuardbandStudy(no_trials), FatalError);
}

}  // namespace
}  // namespace vrddram::core
