#include "ecc/analysis.h"

#include <algorithm>
#include <cmath>
#include <math.h>

#include "common/error.h"
#include "ecc/chipkill.h"
#include "ecc/hamming.h"

namespace vrddram::ecc {

double BinomialPmf(std::size_t n, std::size_t k, double p) {
  VRD_FATAL_IF(p < 0.0 || p > 1.0, "probability out of range");
  if (k > n) {
    return 0.0;
  }
  // Work in log space for numerical robustness. lgamma_r, not
  // std::lgamma: the latter writes the global `signgam` (DESIGN.md §6).
  const auto log_factorial = [](std::size_t m) {
    int sign = 0;
    return lgamma_r(static_cast<double>(m) + 1.0, &sign);
  };
  const double log_choose =
      log_factorial(n) - log_factorial(k) - log_factorial(n - k);
  double log_p = 0.0;
  if (k > 0) {
    if (p == 0.0) {
      return 0.0;
    }
    log_p += static_cast<double>(k) * std::log(p);
  }
  if (n - k > 0) {
    if (p == 1.0) {
      return 0.0;
    }
    log_p += static_cast<double>(n - k) * std::log1p(-p);
  }
  return std::exp(log_choose + log_p);
}

double BinomialTail(std::size_t n, std::size_t k, double p) {
  if (k == 0) {
    return 1.0;
  }
  // Sum the tail itself, smallest terms first: 1 - sum_{j<k} pmf(j)
  // cancels to rounding noise once the tail is below ~1e-16.
  double tail = 0.0;
  for (std::size_t j = n; j >= k; --j) {
    tail += BinomialPmf(n, j, p);
  }
  return std::min(1.0, tail);
}

namespace {

/// Visit every pattern of 1..kMaxEnumeratedWeight flipped bits of
/// `clean` (flip(word, bit) flips one bit) and count those `fails`.
template <typename Word, typename Flip, typename Fails>
LowWeightFailures EnumerateFailures(std::size_t bits, const Word& clean,
                                    Flip flip, Fails fails) {
  static_assert(kMaxEnumeratedWeight == 3);
  LowWeightFailures out;
  out.bits = bits;
  for (std::size_t a = 0; a < bits; ++a) {
    Word one = clean;
    flip(one, a);
    out.failures[1] += fails(one) ? 1 : 0;
    for (std::size_t b = a + 1; b < bits; ++b) {
      Word two = one;
      flip(two, b);
      out.failures[2] += fails(two) ? 1 : 0;
      for (std::size_t c = b + 1; c < bits; ++c) {
        Word three = two;
        flip(three, c);
        out.failures[3] += fails(three) ? 1 : 0;
      }
    }
  }
  return out;
}

}  // namespace

LowWeightFailures EnumerateSecdedFailures() {
  const Hamming72 codec;
  const std::uint64_t data = 0x0F0F33335555AAAAull;
  return EnumerateFailures(
      72, codec.Encode(data),
      [](Codeword72& word, std::size_t bit) { word.FlipBit(bit); },
      [&](const Codeword72& word) {
        const DecodeResult result = codec.Decode(word);
        return result.status == DecodeStatus::kDetected ||
               result.data != data;
      });
}

LowWeightFailures EnumerateSscFailures() {
  const ChipkillSsc codec;
  std::array<std::uint8_t, 16> data{};
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<std::uint8_t>(0x11 * i);
  }
  return EnumerateFailures(
      8 * ChipkillSsc::kTotalSymbols, codec.Encode(data),
      [](CodewordSsc& word, std::size_t bit) {
        word.symbols[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
      },
      [&](const CodewordSsc& word) {
        const SscDecodeResult result = codec.Decode(word);
        return result.status == DecodeStatus::kDetected ||
               result.data != data;
      });
}

double EnumeratedFailureProbability(const LowWeightFailures& failures,
                                    double ber) {
  VRD_FATAL_IF(ber < 0.0 || ber > 1.0, "probability out of range");
  double total = 0.0;
  for (std::size_t k = 1; k <= kMaxEnumeratedWeight; ++k) {
    total += static_cast<double>(failures.failures[k]) *
             std::pow(ber, static_cast<double>(k)) *
             std::pow(1.0 - ber, static_cast<double>(failures.bits - k));
  }
  return total;
}

std::string ToString(CodeKind kind) {
  switch (kind) {
    case CodeKind::kSec: return "SEC";
    case CodeKind::kSecded: return "SECDED";
    case CodeKind::kChipkill: return "Chipkill-like (SSC)";
  }
  throw PanicError("unknown code kind");
}

ErrorProbabilities AnalyzeCode(CodeKind kind, double ber) {
  VRD_FATAL_IF(ber < 0.0 || ber > 1.0, "probability out of range");
  ErrorProbabilities out;
  switch (kind) {
    case CodeKind::kSec: {
      const double ge2 = BinomialTail(72, 2, ber);
      out.uncorrectable = ge2;
      out.undetectable = ge2;  // no detection capability
      out.detectable_uncorrectable = -1.0;
      break;
    }
    case CodeKind::kSecded: {
      out.uncorrectable = BinomialTail(72, 2, ber);
      out.undetectable = BinomialTail(72, 3, ber);
      out.detectable_uncorrectable = BinomialPmf(72, 2, ber);
      break;
    }
    case CodeKind::kChipkill: {
      // 1 - (1-ber)^8 without the cancellation at tiny rates.
      const double symbol_error = -std::expm1(8.0 * std::log1p(-ber));
      const double ge2 = BinomialTail(18, 2, symbol_error);
      out.uncorrectable = ge2;
      // Multi-symbol errors alias to valid single-symbol corrections
      // with high probability; the paper conservatively reports them
      // as undetectable.
      out.undetectable = ge2;
      out.detectable_uncorrectable = -1.0;
      break;
    }
  }
  return out;
}

}  // namespace vrddram::ecc
