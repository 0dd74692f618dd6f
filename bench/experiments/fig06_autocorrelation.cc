/**
 * @file
 * Figure 6 / Finding 4: the autocorrelation function of a series of
 * RDT measurements (module M1) compared against the ACF of a series of
 * normally distributed random numbers: no repeating patterns.
 */
#include <iostream>

#include "common/error.h"
#include "common/experiment.h"
#include "common/rng.h"
#include "stats/autocorrelation.h"

namespace vrddram::bench {
namespace {

void AnalyzeFig06(const core::CampaignResult&, Report* report) {
  const Flags& flags = report->flags;
  std::ostream& out = report->out;
  const std::string device = flags.GetString("device");
  const auto measurements =
      static_cast<std::size_t>(flags.GetUint("measurements"));
  const auto lags = static_cast<std::size_t>(flags.GetUint("lags"));
  const std::uint64_t seed = flags.GetUint("seed");

  PrintBanner(out, "Figure 6: ACF of the RDT series of " + device +
                       " vs. ACF of white noise");

  SingleRowSeries data;
  VRD_FATAL_IF(!CollectSingleRowSeries(device, measurements, seed, &data),
               "no victim row found on " + device);
  std::vector<double> values;
  for (const std::int64_t v : data.series) {
    if (v >= 0) {
      values.push_back(static_cast<double>(v));
    }
  }
  const std::vector<double> rdt_acf =
      stats::Autocorrelation(values, lags);

  // Reference: same-length normally distributed random series.
  Rng rng(seed ^ 0xac5);
  std::vector<double> noise(values.size());
  for (double& x : noise) {
    x = rng.NextGaussian();
  }
  const std::vector<double> noise_acf =
      stats::Autocorrelation(noise, lags);

  const double bound = stats::WhiteNoiseBound95(values.size());
  TextTable table({"lag", "ACF(RDT series)", "ACF(white noise)",
                   "95% band"});
  for (std::size_t lag = 0; lag <= lags; ++lag) {
    table.AddRow({Cell(static_cast<std::uint64_t>(lag)),
                  Cell(rdt_acf[lag], 4), Cell(noise_acf[lag], 4),
                  "+-" + Cell(bound, 4)});
  }
  table.Print(out);

  const double rdt_sig =
      stats::FractionSignificantLags(rdt_acf, values.size());
  const double noise_sig =
      stats::FractionSignificantLags(noise_acf, noise.size());
  PrintBanner(out, "Finding 4 check");
  PrintCheck(out, "fig06.significant_lags_rdt_vs_noise",
             "comparable to white noise",
             Cell(rdt_sig, 3) + " vs " + Cell(noise_sig, 3));
}

ExperimentSpec Fig06Spec() {
  ExperimentSpec spec;
  spec.name = "fig06_autocorrelation";
  spec.description =
      "Figure 6: ACF of an RDT series vs. white noise";
  spec.flags = {
      {"device", "M1", "device to measure"},
      {"measurements", "100000", "measurements of the victim row"},
      {"lags", "40", "maximum ACF lag"},
      SeedFlagSpec(),
  };
  spec.smoke_args = {"--measurements=4000"};
  spec.analyze = AnalyzeFig06;
  return spec;
}

VRD_REGISTER_EXPERIMENT(Fig06Spec);

}  // namespace
}  // namespace vrddram::bench
