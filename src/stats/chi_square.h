/**
 * @file
 * Pearson chi-square goodness-of-fit test against a normal distribution
 * fitted to the sample mean and standard deviation, as used in §4.1 to
 * show that an RDT measurement "likely samples a normally distributed
 * random variable" (minimum p-value 0.18 across tested chips).
 */
#ifndef VRDDRAM_STATS_CHI_SQUARE_H
#define VRDDRAM_STATS_CHI_SQUARE_H

#include <cstddef>
#include <span>

namespace vrddram::stats {

/// Standard normal CDF.
double NormalCdf(double z);

/// Regularized lower incomplete gamma P(a, x).
double RegularizedGammaP(double a, double x);

/// Regularized upper incomplete gamma Q(a, x) = 1 - P(a, x).
double RegularizedGammaQ(double a, double x);

/// Upper-tail p-value of a chi-square statistic with `dof` degrees of
/// freedom.
double ChiSquarePValue(double statistic, std::size_t dof);

/// Result of the goodness-of-fit test.
struct GoodnessOfFit {
  double statistic = 0.0;     ///< Pearson chi-square statistic.
  std::size_t dof = 0;        ///< Degrees of freedom after pooling.
  double p_value = 0.0;       ///< Upper-tail p-value.
  std::size_t bins_used = 0;  ///< Bins remaining after pooling.
  double fitted_mean = 0.0;
  double fitted_stddev = 0.0;

  /// Null hypothesis "data is normal" survives at significance alpha.
  bool NormalAt(double alpha = 0.05) const { return p_value > alpha; }
};

/**
 * Chi-square GOF test of `xs` against a normal fitted to its mean and
 * standard deviation, following the paper's §4.1 procedure for the
 * inherently quantized RDT data: bins are the equal-width unique-value
 * bins of the Fig. 4 histogram convention, and expected counts come
 * from the fitted normal's CDF over the bin edges. Adjacent bins are
 * pooled until every expected count is at least `min_expected`.
 * (Equal-probability binning would reject any discrete distribution
 * regardless of its shape.)
 */
GoodnessOfFit ChiSquareNormalTestBinned(std::span<const double> xs,
                                        double min_expected = 5.0);

}  // namespace vrddram::stats

#endif  // VRDDRAM_STATS_CHI_SQUARE_H
