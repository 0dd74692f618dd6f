#include "stats/chi_square.h"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "common/error.h"
#include "common/rng.h"

namespace vrddram::stats {
namespace {

/// Ceiling-to-grid quantization, the way RDT measurements are recorded.
double Quantize(double latent, double step) {
  return std::ceil(latent / step) * step;
}

TEST(ChiSquareTest, NormalCdfKnownValues) {
  EXPECT_NEAR(NormalCdf(0.0), 0.5, 1e-12);
  EXPECT_NEAR(NormalCdf(1.0), 0.841345, 1e-5);
  EXPECT_NEAR(NormalCdf(-1.96), 0.024998, 1e-5);
  EXPECT_NEAR(NormalCdf(3.0), 0.998650, 1e-5);
}

TEST(ChiSquareTest, RegularizedGammaComplement) {
  for (double a : {0.5, 1.0, 2.5, 10.0}) {
    for (double x : {0.1, 1.0, 5.0, 20.0}) {
      EXPECT_NEAR(RegularizedGammaP(a, x) + RegularizedGammaQ(a, x), 1.0,
                  1e-10);
    }
  }
}

TEST(ChiSquareTest, GammaPKnownValues) {
  // P(1, x) = 1 - exp(-x).
  EXPECT_NEAR(RegularizedGammaP(1.0, 2.0), 1.0 - std::exp(-2.0), 1e-10);
  // P(a, 0) = 0, Q(a, 0) = 1.
  EXPECT_DOUBLE_EQ(RegularizedGammaP(3.0, 0.0), 0.0);
  EXPECT_DOUBLE_EQ(RegularizedGammaQ(3.0, 0.0), 1.0);
}

TEST(ChiSquareTest, PValueKnownQuantiles) {
  // Chi-square with 1 dof: P(X > 3.841) = 0.05.
  EXPECT_NEAR(ChiSquarePValue(3.841, 1), 0.05, 0.001);
  // 10 dof: P(X > 18.307) = 0.05.
  EXPECT_NEAR(ChiSquarePValue(18.307, 10), 0.05, 0.001);
  EXPECT_DOUBLE_EQ(ChiSquarePValue(0.0, 5), 1.0);
}

// The binned variant must accept grid-quantized normal data (the RDT
// measurement situation).
TEST(ChiSquareTest, QuantizedNormalPassesBinnedVariant) {
  Rng rng(24);
  std::vector<double> xs;
  const double step = 50.0;
  for (int i = 0; i < 20000; ++i) {
    const double latent = rng.NextGaussian(10000.0, 150.0);
    xs.push_back(Quantize(latent, step));
  }
  const GoodnessOfFit binned = ChiSquareNormalTestBinned(xs);
  EXPECT_TRUE(binned.NormalAt(0.01)) << "p=" << binned.p_value;
}

// Non-normal shapes must fail the binned variant once quantized to a
// grid: the uniform and bimodal inputs each probe a different way a
// distribution departs from the fitted normal.
TEST(ChiSquareTest, QuantizedNonNormalFailsBinnedVariant) {
  Rng rng(25);
  std::vector<double> uniform_rdt;
  std::vector<double> uniform_unit;
  std::vector<double> bimodal;
  for (int i = 0; i < 20000; ++i) {
    uniform_rdt.push_back(Quantize(10000.0 + 600.0 * rng.NextDouble(), 50.0));
  }
  for (int i = 0; i < 5000; ++i) {
    uniform_unit.push_back(Quantize(rng.NextDouble(), 0.05));
    bimodal.push_back(
        Quantize(rng.NextGaussian(i % 2 == 0 ? 0.0 : 10.0, 1.0), 0.5));
  }
  for (const auto* xs : {&uniform_rdt, &uniform_unit, &bimodal}) {
    const GoodnessOfFit binned = ChiSquareNormalTestBinned(*xs);
    EXPECT_FALSE(binned.NormalAt(0.05)) << "p=" << binned.p_value;
  }
}

TEST(ChiSquareTest, ConstantSeriesTriviallyPassesBinnedVariant) {
  const std::vector<double> xs(100, 5.0);
  const GoodnessOfFit binned = ChiSquareNormalTestBinned(xs);
  EXPECT_DOUBLE_EQ(binned.p_value, 1.0);
}

TEST(ChiSquareTest, TooFewSamplesThrow) {
  const std::vector<double> xs = {1.0, 2.0};
  EXPECT_THROW(ChiSquareNormalTestBinned(xs), FatalError);
}

}  // namespace
}  // namespace vrddram::stats
