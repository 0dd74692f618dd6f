/**
 * @file
 * Figure 15 / §6.4: the probability of finding the minimum RDT within
 * a safety margin (10%..50%) using N < 1,000 measurements - mean
 * (circles) and minimum (bars) across all tested rows and parameter
 * combinations. Even N = 500 with a 50% margin does not guarantee the
 * minimum is identified.
 */
#include <algorithm>
#include <iostream>

#include "common/experiment.h"

namespace vrddram::bench {
namespace {

constexpr CampaignProcedure kProcedure{};

core::CampaignConfig BuildFig15Campaign(const Flags& flags) {
  core::CampaignConfig config = kProcedure.Build(flags);
  // Two representative data patterns keep the run short (the trend is
  // unchanged with more); the set is fixed here, not a flag.
  config.patterns = {dram::DataPattern::kCheckered0,
                     dram::DataPattern::kRowstripe1};
  return config;
}

void AnalyzeFig15(const core::CampaignResult& result, Report* report) {
  std::ostream& out = report->out;
  PrintBanner(out,
              "Figure 15: probability of finding the min RDT within a "
              "safety margin, vs. N measurements");

  const MinRdtAnalysis analysis = AnalyzeMinRdt(
      result, report, 0xf15,
      {.sample_sizes = {1, 3, 5, 10, 50, 500},
       .margins = {0.10, 0.20, 0.30, 0.40, 0.50}});
  const core::MinRdtSettings& settings = analysis.settings;

  // per (N index, margin index): list across rows.
  std::vector<std::vector<std::vector<double>>> probs(
      settings.sample_sizes.size(),
      std::vector<std::vector<double>>(settings.margins.size()));
  for (const core::RowMinRdtResult& mc : analysis.rows) {
    for (std::size_t n = 0; n < settings.sample_sizes.size(); ++n) {
      for (std::size_t m = 0; m < settings.margins.size(); ++m) {
        probs[n][m].push_back(mc.per_n[n].prob_within_margin[m]);
      }
    }
  }

  TextTable table({"N", "margin", "mean P(within margin)",
                   "min P(within margin)"});
  double mean_n50_m10 = 0.0;
  double min_n50_m10 = 0.0;
  double min_n500_m50 = 0.0;
  for (std::size_t n = 0; n < settings.sample_sizes.size(); ++n) {
    for (std::size_t m = 0; m < settings.margins.size(); ++m) {
      const auto& values = probs[n][m];
      const double mean = stats::Mean(values);
      const double mn = *std::min_element(values.begin(), values.end());
      table.AddRow(
          {Cell(static_cast<std::uint64_t>(settings.sample_sizes[n])),
           Cell(settings.margins[m] * 100.0, 0) + "%", Cell(mean, 4),
           Cell(mn, 4)});
      if (settings.sample_sizes[n] == 50 && m == 0) {
        mean_n50_m10 = mean;
        min_n50_m10 = mn;
      }
      if (settings.sample_sizes[n] == 500 && m == 4) {
        min_n500_m50 = mn;
      }
    }
  }
  table.Print(out);

  PrintBanner(out, "§6.4 checks");
  PrintCheck(out, "fig15.mean_prob_n50_margin10", 0.991, mean_n50_m10,
             3);
  PrintCheck(out, "fig15.min_prob_n50_margin10", 0.045, min_n50_m10, 3);
  PrintCheck(out, "fig15.min_prob_n500_margin50", 0.749, min_n500_m50,
             3);
}

ExperimentSpec Fig15Spec() {
  ExperimentSpec spec;
  spec.name = "fig15_guardband_probability";
  spec.description =
      "Figure 15: probability of finding the min RDT within a margin";
  spec.flags = kProcedure.Schema();
  spec.smoke_args = {"--devices=M1,S2", "--rows=3", "--measurements=150",
                     "--iters=500"};
  spec.build_campaign = BuildFig15Campaign;
  spec.analyze = AnalyzeFig15;
  return spec;
}

VRD_REGISTER_EXPERIMENT(Fig15Spec);

}  // namespace
}  // namespace vrddram::bench
