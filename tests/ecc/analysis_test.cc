#include "ecc/analysis.h"

#include <gtest/gtest.h>

#include <cmath>

#include "common/error.h"
#include "common/rng.h"
#include "ecc/chipkill.h"
#include "ecc/hamming.h"

namespace vrddram::ecc {
namespace {

TEST(BinomialTest, PmfKnownValues) {
  EXPECT_NEAR(BinomialPmf(10, 0, 0.5), 1.0 / 1024.0, 1e-12);
  EXPECT_NEAR(BinomialPmf(10, 5, 0.5), 252.0 / 1024.0, 1e-12);
  EXPECT_DOUBLE_EQ(BinomialPmf(5, 6, 0.5), 0.0);
  EXPECT_DOUBLE_EQ(BinomialPmf(5, 0, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(BinomialPmf(5, 5, 1.0), 1.0);
  EXPECT_DOUBLE_EQ(BinomialPmf(5, 2, 0.0), 0.0);
}

TEST(BinomialTest, TailComplementsPmf) {
  double total = 0.0;
  for (std::size_t k = 0; k <= 20; ++k) {
    total += BinomialPmf(20, k, 0.3);
  }
  EXPECT_NEAR(total, 1.0, 1e-12);
  EXPECT_NEAR(BinomialTail(20, 0, 0.3), 1.0, 1e-12);
  EXPECT_NEAR(BinomialTail(20, 21, 0.3), 0.0, 1e-12);
  EXPECT_NEAR(BinomialTail(20, 3, 0.3),
              1.0 - BinomialPmf(20, 0, 0.3) - BinomialPmf(20, 1, 0.3) -
                  BinomialPmf(20, 2, 0.3),
              1e-12);
}

// 1 - sum_{j<k} pmf(j) cancels below ~1e-16: at these rates it read
// 1.11e-16 and 0. The tail is dominated by its first term.
TEST(BinomialTest, TailKeepsPrecisionFarBelowOne) {
  for (const double ber : {1e-7, 1e-8}) {
    const double leading = 59640.0 * std::pow(ber, 3.0) *
                           std::pow(1.0 - ber, 69.0);  // C(72,3) term
    EXPECT_NEAR(AnalyzeCode(CodeKind::kSecded, ber).undetectable,
                leading, 1e-5 * leading)
        << ber;
  }
  EXPECT_NEAR(AnalyzeCode(CodeKind::kSecded, 1e-7).undetectable,
              5.964e-17, 0.001e-17);
  EXPECT_NEAR(AnalyzeCode(CodeKind::kSecded, 1e-8).undetectable,
              5.964e-20, 0.001e-20);
  EXPECT_DOUBLE_EQ(BinomialTail(72, 72, 0.5), std::pow(0.5, 72.0));
  EXPECT_DOUBLE_EQ(BinomialTail(72, 1, 1.0), 1.0);
  EXPECT_DOUBLE_EQ(BinomialTail(72, 1, 0.0), 0.0);
}

// Table 3 of the paper, at the empirically observed worst bit error
// rate of 7.6e-5 (5 bitflips in a 64 Kibit row).
TEST(AnalysisTest, Table3Sec) {
  const ErrorProbabilities p =
      AnalyzeCode(CodeKind::kSec, kPaperWorstBer);
  EXPECT_NEAR(p.uncorrectable, 1.48e-5, 0.05e-5);
  EXPECT_NEAR(p.undetectable, 1.48e-5, 0.05e-5);
  EXPECT_LT(p.detectable_uncorrectable, 0.0);  // N/A
}

TEST(AnalysisTest, Table3Secded) {
  const ErrorProbabilities p =
      AnalyzeCode(CodeKind::kSecded, kPaperWorstBer);
  EXPECT_NEAR(p.uncorrectable, 1.48e-5, 0.05e-5);
  EXPECT_NEAR(p.undetectable, 2.64e-8, 0.15e-8);
  EXPECT_NEAR(p.detectable_uncorrectable, 1.48e-5, 0.05e-5);
}

TEST(AnalysisTest, Table3Chipkill) {
  const ErrorProbabilities p =
      AnalyzeCode(CodeKind::kChipkill, kPaperWorstBer);
  EXPECT_NEAR(p.uncorrectable, 5.66e-5, 0.1e-5);
  EXPECT_NEAR(p.undetectable, 5.66e-5, 0.1e-5);
}

TEST(AnalysisTest, ProbabilitiesGrowWithBer) {
  for (const CodeKind kind :
       {CodeKind::kSec, CodeKind::kSecded, CodeKind::kChipkill}) {
    const double low = AnalyzeCode(kind, 1e-6).uncorrectable;
    const double high = AnalyzeCode(kind, 1e-4).uncorrectable;
    EXPECT_GT(high, low);
  }
}

// Monte Carlo cross-check: inject i.i.d. bit errors into real
// codewords and compare uncorrectable rates against the analytic
// model.
TEST(AnalysisTest, MonteCarloSecdedMatchesAnalytic) {
  const Hamming72 codec;
  Rng rng(55);
  const double ber = 2e-3;  // inflated so the MC converges quickly
  const int trials = 200000;
  int uncorrectable = 0;
  const std::uint64_t data = 0x1122334455667788ull;
  const Codeword72 clean = codec.Encode(data);
  for (int t = 0; t < trials; ++t) {
    Codeword72 word = clean;
    int flips = 0;
    for (std::size_t bit = 0; bit < 72; ++bit) {
      if (rng.NextBernoulli(ber)) {
        word.FlipBit(bit);
        ++flips;
      }
    }
    if (flips == 0) {
      continue;
    }
    const DecodeResult result = codec.Decode(word);
    if (result.status == DecodeStatus::kDetected ||
        result.data != data) {
      ++uncorrectable;
    }
  }
  const double analytic =
      AnalyzeCode(CodeKind::kSecded, ber).uncorrectable;
  EXPECT_NEAR(static_cast<double>(uncorrectable) / trials, analytic,
              analytic * 0.15);
}

TEST(AnalysisTest, MonteCarloChipkillMatchesAnalytic) {
  const ChipkillSsc codec;
  Rng rng(56);
  const double ber = 2e-3;
  const int trials = 100000;
  int uncorrectable = 0;
  std::array<std::uint8_t, 16> data{};
  for (std::size_t i = 0; i < 16; ++i) {
    data[i] = static_cast<std::uint8_t>(i * 17);
  }
  const CodewordSsc clean = codec.Encode(data);
  for (int t = 0; t < trials; ++t) {
    CodewordSsc word = clean;
    for (std::size_t symbol = 0; symbol < 18; ++symbol) {
      for (int bit = 0; bit < 8; ++bit) {
        if (rng.NextBernoulli(ber)) {
          word.symbols[symbol] ^= static_cast<std::uint8_t>(1 << bit);
        }
      }
    }
    const SscDecodeResult result = codec.Decode(word);
    if (result.status == DecodeStatus::kDetected ||
        result.data != data) {
      ++uncorrectable;
    }
  }
  const double analytic =
      AnalyzeCode(CodeKind::kChipkill, ber).uncorrectable;
  EXPECT_NEAR(static_cast<double>(uncorrectable) / trials, analytic,
              analytic * 0.15);
}

std::uint64_t Choose(std::uint64_t n, std::uint64_t k) {
  std::uint64_t result = 1;
  for (std::uint64_t i = 1; i <= k; ++i) {
    result = result * (n - k + i) / i;
  }
  return result;
}

const LowWeightFailures& Secded() {
  static const LowWeightFailures failures = EnumerateSecdedFailures();
  return failures;
}

const LowWeightFailures& Ssc() {
  static const LowWeightFailures failures = EnumerateSscFailures();
  return failures;
}

// Exhaustive low-weight enumeration through the real decoders: the
// per-weight failure counts are combinatorial facts, and the
// probability they give differs from the analytic model only by the
// weight >= 4 patterns the enumeration leaves out.
TEST(EnumerationTest, SecdedFailsOnEveryMultiBitPattern) {
  EXPECT_EQ(Secded().bits, 72u);
  EXPECT_EQ(Secded().failures[0], 0u);
  EXPECT_EQ(Secded().failures[1], 0u);
  EXPECT_EQ(Secded().failures[2], Choose(72, 2));
  EXPECT_EQ(Secded().failures[3], Choose(72, 3));
  EXPECT_EQ(Secded().failures[2], 2556u);
  EXPECT_EQ(Secded().failures[3], 59640u);
}

TEST(EnumerationTest, SscCorrectsExactlyThePatternsInsideOneSymbol) {
  EXPECT_EQ(Ssc().bits, 144u);
  EXPECT_EQ(Ssc().failures[0], 0u);
  for (std::uint64_t k = 1; k <= kMaxEnumeratedWeight; ++k) {
    EXPECT_EQ(Ssc().failures[k], Choose(144, k) - 18 * Choose(8, k)) << k;
  }
  EXPECT_EQ(Ssc().failures[1], 0u);
  EXPECT_EQ(Ssc().failures[2], 9792u);
  EXPECT_EQ(Ssc().failures[3], 486336u);
}

TEST(EnumerationTest, ProbabilityWithinTailBoundOfAnalyticModel) {
  for (const double ber : {kPaperWorstBer, 1e-3}) {
    const struct {
      const LowWeightFailures& failures;
      CodeKind kind;
    } codes[] = {{Secded(), CodeKind::kSecded}, {Ssc(), CodeKind::kChipkill}};
    for (const auto& code : codes) {
      const double enumerated =
          EnumeratedFailureProbability(code.failures, ber);
      const double analytic = AnalyzeCode(code.kind, ber).uncorrectable;
      const double tail =
          BinomialTail(code.failures.bits, kMaxEnumeratedWeight + 1, ber);
      // The analytic model counts the same weight <= 3 patterns, plus
      // at most every heavier one.
      EXPECT_GE(analytic, enumerated * (1.0 - 1e-12))
          << ToString(code.kind) << " at " << ber;
      EXPECT_LE(analytic - enumerated, tail * (1.0 + 1e-12))
          << ToString(code.kind) << " at " << ber;
      EXPECT_GT(tail, 0.0);
    }
  }
  EXPECT_NEAR(EnumeratedFailureProbability(Secded(), kPaperWorstBer),
              1.4825e-5, 0.0001e-5);
  EXPECT_NEAR(EnumeratedFailureProbability(Ssc(), kPaperWorstBer),
              5.6596e-5, 0.0001e-5);
  EXPECT_DOUBLE_EQ(EnumeratedFailureProbability(Ssc(), 0.0), 0.0);
  EXPECT_THROW(EnumeratedFailureProbability(Ssc(), 1.5), FatalError);
}

TEST(AnalysisTest, Names) {
  EXPECT_EQ(ToString(CodeKind::kSec), "SEC");
  EXPECT_EQ(ToString(CodeKind::kSecded), "SECDED");
  EXPECT_EQ(ToString(CodeKind::kChipkill), "Chipkill-like (SSC)");
}

}  // namespace
}  // namespace vrddram::ecc
