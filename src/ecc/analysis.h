/**
 * @file
 * Analytic error-probability model behind Table 3: probabilities of
 * uncorrectable / undetectable / detectable-but-uncorrectable errors
 * for SEC, SECDED, and Chipkill-like SSC codes under an i.i.d. bit
 * error rate (the paper uses the worst empirically observed rate,
 * 7.6e-5, from 5 bitflips in a 64 Kibit row at a 10% guardband).
 */
#ifndef VRDDRAM_ECC_ANALYSIS_H
#define VRDDRAM_ECC_ANALYSIS_H

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>

namespace vrddram::ecc {

/// Binomial pmf: P(X == k) for X ~ Binomial(n, p).
double BinomialPmf(std::size_t n, std::size_t k, double p);

/// Binomial upper tail: P(X >= k), summed over the terms j = k..n so
/// it keeps full relative precision when the tail is far below 1e-16.
double BinomialTail(std::size_t n, std::size_t k, double p);

enum class CodeKind : std::uint8_t {
  kSec,       ///< single error correction, 72-bit codeword
  kSecded,    ///< SEC + double error detection, 72-bit codeword
  kChipkill,  ///< single symbol correction, 18 x 8-bit symbols
};

std::string ToString(CodeKind kind);

/// One row of Table 3.
struct ErrorProbabilities {
  double uncorrectable = 0.0;
  double undetectable = 0.0;
  /// Negative when the category does not exist for the code ("N/A").
  double detectable_uncorrectable = -1.0;
};

/**
 * Analytic per-codeword probabilities at bit error rate `ber`,
 * matching the paper's model: SEC treats every >= 2-bit error as
 * silent corruption; SECDED detects 2-bit errors and is silently
 * beaten by >= 3; SSC fails silently once >= 2 of its 18 symbols are
 * hit (symbol error rate 1 - (1-ber)^8).
 */
ErrorProbabilities AnalyzeCode(CodeKind kind, double ber);

/// Heaviest error weight `EnumerateSecdedFailures` and
/// `EnumerateSscFailures` visit.
inline constexpr std::size_t kMaxEnumeratedWeight = 3;

/**
 * Exact decode outcomes of a real codec over every error pattern of
 * weight 1..kMaxEnumeratedWeight. The codes are linear and their
 * decoders act on the syndrome only, so whether a pattern is corrected
 * does not depend on the data it hits: one codeword per pattern
 * suffices.
 */
struct LowWeightFailures {
  std::size_t bits = 0;  ///< codeword length n
  /// failures[k]: patterns of exactly k flipped bits after which the
  /// decoder reports an uncorrectable error or returns wrong data.
  /// failures[0] is 0 (the clean word decodes clean).
  std::array<std::uint64_t, kMaxEnumeratedWeight + 1> failures{};
};

/// Every pattern of weight <= 3 through `Hamming72::Decode`; SECDED
/// fails on 0 / C(72,2) / C(72,3) of them.
LowWeightFailures EnumerateSecdedFailures();

/// Every pattern of weight <= 3 through `ChipkillSsc::Decode`; SSC
/// fails on C(144,k) - 18 C(8,k): all patterns but those inside one
/// symbol.
LowWeightFailures EnumerateSscFailures();

/**
 * Failure probability at bit error rate `ber` contributed by the
 * enumerated weights: sum over k of failures[k] ber^k (1-ber)^(n-k).
 * The true probability lies in [this, this + BinomialTail(n,
 * kMaxEnumeratedWeight + 1, ber)].
 */
double EnumeratedFailureProbability(const LowWeightFailures& failures,
                                    double ber);

/// The worst bit error rate observed in the paper's §6.4 experiment:
/// 5 unique bitflips in a 64 Kibit (65,536-bit) row.
inline constexpr double kPaperWorstBer = 5.0 / 65536.0;  // ~7.6e-5

}  // namespace vrddram::ecc

#endif  // VRDDRAM_ECC_ANALYSIS_H
