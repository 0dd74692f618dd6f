/**
 * @file
 * Table 3 / §6.4: probability of uncorrectable, undetectable, and
 * detectable-but-uncorrectable errors for SEC, SECDED, and
 * Chipkill-like SSC codes at the worst empirically observed bit error
 * rate (7.6e-5, from 5 unique bitflips in a 64 Kibit row at a 10% RDT
 * guardband). The analytic model is cross-checked against the real
 * codecs: by default exactly, decoding every error pattern of weight
 * <= 3; with `--mc_trials=N` by the paper-style Monte Carlo fault
 * injection of N codewords per codec.
 */
#include <iostream>

#include "common/experiment.h"
#include "common/rng.h"
#include "ecc/analysis.h"
#include "ecc/chipkill.h"
#include "ecc/hamming.h"

namespace vrddram::bench {
namespace {

using namespace vrddram::ecc;

std::string Prob(double p) {
  if (p < 0.0) {
    return "N/A";
  }
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%.2e", p);
  return buffer;
}

std::uint64_t Choose(std::uint64_t n, std::uint64_t k) {
  std::uint64_t result = 1;
  for (std::uint64_t i = 1; i <= k; ++i) {
    result = result * (n - k + i) / i;
  }
  return result;
}

/// Exact cross-check: per-weight failure counts of the real decoders
/// against their combinatorial values, and the probability they give.
void PrintExactCrossCheck(std::ostream& out, double ber,
                          double secded_analytic, double ssc_analytic) {
  PrintBanner(out, "Exact cross-check (real codecs, every error pattern "
                   "of weight <= " +
                       std::to_string(kMaxEnumeratedWeight) + ")");
  const LowWeightFailures secded = EnumerateSecdedFailures();
  const LowWeightFailures ssc = EnumerateSscFailures();
  // SECDED corrects every single-bit error and fails on every heavier
  // one; SSC corrects exactly the patterns inside one of its 18
  // eight-bit symbols.
  for (std::size_t k = 1; k <= kMaxEnumeratedWeight; ++k) {
    PrintCheck(out, "table03.enum_secded_failures_w" + std::to_string(k),
               std::to_string(k == 1 ? 0 : Choose(72, k)),
               std::to_string(secded.failures[k]));
  }
  for (std::size_t k = 1; k <= kMaxEnumeratedWeight; ++k) {
    PrintCheck(out, "table03.enum_ssc_failures_w" + std::to_string(k),
               std::to_string(Choose(144, k) - 18 * Choose(8, k)),
               std::to_string(ssc.failures[k]));
  }
  const std::size_t tail_weight = kMaxEnumeratedWeight + 1;
  out << "weight >= " << tail_weight << " tail (not enumerated): SECDED <= "
      << Prob(BinomialTail(secded.bits, tail_weight, ber)) << ", SSC <= "
      << Prob(BinomialTail(ssc.bits, tail_weight, ber)) << '\n';
  PrintCheck(out, "table03.enum_secded_uncorrectable", Prob(secded_analytic),
             Prob(EnumeratedFailureProbability(secded, ber)));
  PrintCheck(out, "table03.enum_ssc_uncorrectable", Prob(ssc_analytic),
             Prob(EnumeratedFailureProbability(ssc, ber)));
}

void AnalyzeTable03(const core::CampaignResult&, Report* report) {
  const Flags& flags = report->flags;
  std::ostream& out = report->out;
  const double ber = flags.GetDouble("ber");
  VRD_FATAL_IF(!(ber >= 0.0 && ber <= 1.0),
               "flag --ber: must lie in [0, 1], got " +
                   flags.GetString("ber"));
  const auto mc_trials =
      static_cast<std::size_t>(flags.GetUint("mc_trials"));
  const std::uint64_t seed = flags.GetUint("seed");

  PrintBanner(out, "Table 3: error probabilities at BER " + Prob(ber));

  TextTable table({"Type of error", "SEC", "SECDED",
                   "Chipkill-like (SSC)"});
  const ErrorProbabilities sec = AnalyzeCode(CodeKind::kSec, ber);
  const ErrorProbabilities secded = AnalyzeCode(CodeKind::kSecded, ber);
  const ErrorProbabilities ssc = AnalyzeCode(CodeKind::kChipkill, ber);
  table.AddRow({"Uncorrectable", Prob(sec.uncorrectable),
                Prob(secded.uncorrectable), Prob(ssc.uncorrectable)});
  table.AddRow({"Undetectable", Prob(sec.undetectable),
                Prob(secded.undetectable), Prob(ssc.undetectable)});
  table.AddRow({"Detectable uncorrectable",
                Prob(sec.detectable_uncorrectable),
                Prob(secded.detectable_uncorrectable),
                Prob(ssc.detectable_uncorrectable)});
  table.Print(out);

  PrintBanner(out, "Paper values");
  PrintCheck(out, "table03.sec_uncorrectable", "1.48e-05",
             Prob(sec.uncorrectable));
  PrintCheck(out, "table03.secded_undetectable", "2.64e-08",
             Prob(secded.undetectable));
  PrintCheck(out, "table03.ssc_uncorrectable", "5.66e-05",
             Prob(ssc.uncorrectable));

  if (mc_trials == 0) {
    PrintExactCrossCheck(out, ber, secded.uncorrectable, ssc.uncorrectable);
    return;
  }

  // Monte Carlo cross-check with the real codecs at the same BER.
  PrintBanner(out, "Monte Carlo cross-check (real codecs)");
  Rng rng(seed);
  const Hamming72 hamming;
  const ChipkillSsc chipkill;
  const std::uint64_t data64 = 0x0F0F33335555AAAAull;
  const Codeword72 clean72 = hamming.Encode(data64);
  std::array<std::uint8_t, 16> data16{};
  for (std::size_t i = 0; i < 16; ++i) {
    data16[i] = static_cast<std::uint8_t>(0x11 * i);
  }
  const CodewordSsc clean144 = chipkill.Encode(data16);

  std::uint64_t secded_uncorrectable = 0;
  std::uint64_t ssc_uncorrectable = 0;
  for (std::size_t t = 0; t < mc_trials; ++t) {
    Codeword72 word72 = clean72;
    bool any = false;
    for (std::size_t bit = 0; bit < 72; ++bit) {
      if (rng.NextBernoulli(ber)) {
        word72.FlipBit(bit);
        any = true;
      }
    }
    if (any) {
      const DecodeResult result = hamming.Decode(word72);
      if (result.status == DecodeStatus::kDetected ||
          result.data != data64) {
        ++secded_uncorrectable;
      }
    }

    CodewordSsc word144 = clean144;
    any = false;
    for (std::size_t symbol = 0; symbol < 18; ++symbol) {
      for (int bit = 0; bit < 8; ++bit) {
        if (rng.NextBernoulli(ber)) {
          word144.symbols[symbol] ^=
              static_cast<std::uint8_t>(1 << bit);
          any = true;
        }
      }
    }
    if (any) {
      const SscDecodeResult result = chipkill.Decode(word144);
      if (result.status == DecodeStatus::kDetected ||
          result.data != data16) {
        ++ssc_uncorrectable;
      }
    }
  }
  const auto trials = static_cast<double>(mc_trials);
  PrintCheck(out, "table03.mc_secded_uncorrectable",
             Prob(secded.uncorrectable),
             Prob(static_cast<double>(secded_uncorrectable) / trials));
  PrintCheck(out, "table03.mc_ssc_uncorrectable",
             Prob(ssc.uncorrectable),
             Prob(static_cast<double>(ssc_uncorrectable) / trials));
}

ExperimentSpec Table03Spec() {
  ExperimentSpec spec;
  spec.name = "table03_ecc";
  spec.description =
      "Table 3: ECC error probabilities at the worst observed BER";
  spec.flags = {
      {"ber", "7.62939453125e-05", "bit error rate under analysis"},
      {"mc_trials", "0",
       "0 = exact: decode every error pattern of weight <= 3; N > 0 = "
       "Monte Carlo with N trials per codec on one RNG stream"},
      SeedFlagSpec(),
  };
  spec.smoke_args = {"--mc_trials=20000"};
  spec.analyze = AnalyzeTable03;
  return spec;
}

VRD_REGISTER_EXPERIMENT(Table03Spec);

}  // namespace
}  // namespace vrddram::bench
