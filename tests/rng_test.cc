#include <cmath>
#include <cstddef>
#include <numbers>
#include <vector>

#include "gtest/gtest.h"
#include "rng/distributions.h"
#include "rng/rng.h"

namespace htdp {
namespace {

// Sample-mean helper with n draws.
template <typename Sampler>
double MeanOf(Sampler sampler, std::size_t n, Rng& rng) {
  double acc = 0.0;
  for (std::size_t i = 0; i < n; ++i) acc += sampler(rng);
  return acc / static_cast<double>(n);
}

TEST(RngTest, DeterministicUnderSameSeed) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.Next() == b.Next()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(RngTest, UniformUnitInRange) {
  Rng rng(5);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.UniformUnit();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(RngTest, UniformOpenNeverZeroOrOne) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.UniformOpen();
    EXPECT_GT(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(RngTest, UniformUnitMeanIsHalf) {
  Rng rng(11);
  const double mean =
      MeanOf([](Rng& r) { return r.UniformUnit(); }, 200000, rng);
  EXPECT_NEAR(mean, 0.5, 0.005);
}

TEST(RngTest, UniformIntIsUnbiased) {
  Rng rng(13);
  std::vector<int> counts(7, 0);
  const int draws = 70000;
  for (int i = 0; i < draws; ++i) counts[rng.UniformInt(7)]++;
  for (int c : counts) {
    EXPECT_NEAR(static_cast<double>(c), draws / 7.0, 5.0 * std::sqrt(draws));
  }
}

TEST(RngTest, ForkProducesIndependentStream) {
  Rng parent(17);
  Rng child = parent.Fork();
  // The two streams should not be trivially identical.
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (parent.Next() == child.Next()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(DistributionsTest, NormalMomentsMatch) {
  Rng rng(19);
  const std::size_t n = 400000;
  double mean = 0.0;
  double second = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double x = SampleNormal(rng, 2.0, 3.0);
    mean += x;
    second += (x - 2.0) * (x - 2.0);
  }
  mean /= static_cast<double>(n);
  second /= static_cast<double>(n);
  EXPECT_NEAR(mean, 2.0, 0.03);
  EXPECT_NEAR(second, 9.0, 0.15);
}

TEST(DistributionsTest, LaplaceMomentsMatch) {
  Rng rng(23);
  const std::size_t n = 400000;
  double mean = 0.0;
  double second = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double x = SampleLaplace(rng, 1.5);
    mean += x;
    second += x * x;
  }
  mean /= static_cast<double>(n);
  second /= static_cast<double>(n);
  EXPECT_NEAR(mean, 0.0, 0.02);
  EXPECT_NEAR(second, 2.0 * 1.5 * 1.5, 0.1);  // Var = 2 b^2
}

TEST(DistributionsTest, ExponentialMeanMatchesScale) {
  Rng rng(29);
  const double mean =
      MeanOf([](Rng& r) { return SampleExponential(r, 2.5); }, 200000, rng);
  EXPECT_NEAR(mean, 2.5, 0.05);
}

TEST(DistributionsTest, GumbelMeanIsEulerMascheroni) {
  Rng rng(31);
  const double mean =
      MeanOf([](Rng& r) { return SampleGumbel(r); }, 300000, rng);
  EXPECT_NEAR(mean, 0.5772156649, 0.02);
}

TEST(DistributionsTest, LognormalMeanMatches) {
  Rng rng(37);
  const double sigma = 0.6;
  const double mean = MeanOf(
      [sigma](Rng& r) { return SampleLognormal(r, 0.0, sigma); }, 300000, rng);
  EXPECT_NEAR(mean, std::exp(0.5 * sigma * sigma), 0.02);
}

TEST(DistributionsTest, StudentTVarianceMatches) {
  Rng rng(41);
  const double nu = 10.0;
  const std::size_t n = 400000;
  double second = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double x = SampleStudentT(rng, nu);
    second += x * x;
  }
  second /= static_cast<double>(n);
  EXPECT_NEAR(second, nu / (nu - 2.0), 0.05);  // Var = nu/(nu-2)
}

TEST(DistributionsTest, GammaMeanEqualsShape) {
  Rng rng(43);
  for (const double shape : {0.5, 1.0, 2.5, 7.0}) {
    const double mean = MeanOf(
        [shape](Rng& r) { return SampleGamma(r, shape); }, 200000, rng);
    EXPECT_NEAR(mean, shape, 0.05 * std::max(1.0, shape)) << "shape=" << shape;
  }
}

TEST(DistributionsTest, GammaIsPositive) {
  Rng rng(47);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_GT(SampleGamma(rng, 0.5), 0.0);
  }
}

TEST(DistributionsTest, LogLogisticMedianIsOne) {
  Rng rng(53);
  std::vector<double> draws(100001);
  for (double& d : draws) d = SampleLogLogistic(rng, 0.1);
  std::nth_element(draws.begin(), draws.begin() + 50000, draws.end());
  // Median of log-logistic is exactly 1 for any shape c.
  EXPECT_NEAR(draws[50000], 1.0, 0.15);
}

TEST(DistributionsTest, LogLogisticIsHeavyTailed) {
  // For c = 0.1 the distribution has no mean; the max of a modest sample
  // should dwarf the median by many orders of magnitude.
  Rng rng(59);
  double max_draw = 0.0;
  for (int i = 0; i < 20000; ++i) {
    max_draw = std::max(max_draw, SampleLogLogistic(rng, 0.1));
  }
  EXPECT_GT(max_draw, 1e10);
}

TEST(DistributionsTest, LogGammaMeanMatchesDigamma) {
  Rng rng(61);
  // E[log Gamma(c,1)] = digamma(c); digamma(0.5) = -gamma - 2 log 2.
  const double expected = -0.5772156649 - 2.0 * std::log(2.0);
  const double mean = MeanOf(
      [](Rng& r) { return SampleLogGamma(r, 0.5); }, 300000, rng);
  EXPECT_NEAR(mean, expected, 0.03);
}

TEST(DistributionsTest, LogisticMeanAndVariance) {
  Rng rng(67);
  const std::size_t n = 300000;
  double mean = 0.0;
  double second = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double x = SampleLogistic(rng, 1.0, 0.5);
    mean += x;
    second += (x - 1.0) * (x - 1.0);
  }
  mean /= static_cast<double>(n);
  second /= static_cast<double>(n);
  EXPECT_NEAR(mean, 1.0, 0.02);
  // Var = s^2 pi^2 / 3.
  EXPECT_NEAR(second, 0.25 * M_PI * M_PI / 3.0, 0.05);
}

TEST(DistributionsTest, ParetoTailIndexMatches) {
  Rng rng(71);
  // P(X > t) = t^-alpha; check at t = 4 for alpha = 2.
  const double alpha = 2.0;
  int exceed = 0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) {
    if (SamplePareto(rng, alpha) > 4.0) ++exceed;
  }
  EXPECT_NEAR(static_cast<double>(exceed) / n, std::pow(4.0, -alpha), 0.005);
}

TEST(ScalarDistributionTest, FactoryAndSampleDispatch) {
  Rng rng(73);
  EXPECT_EQ(ScalarDistribution::None().Sample(rng), 0.0);
  EXPECT_GT(ScalarDistribution::Lognormal(0.0, 0.6).Sample(rng), 0.0);
  EXPECT_GT(ScalarDistribution::LogLogistic(0.5).Sample(rng), 0.0);
  // Names are human-readable and parameterized.
  EXPECT_EQ(ScalarDistribution::Lognormal(0.0, 0.6).Name(),
            "Lognormal(0,0.6)");
  EXPECT_EQ(ScalarDistribution::Normal(0.0, 5.0).Name(), "Normal(0,5)");
  EXPECT_EQ(ScalarDistribution::None().Name(), "None");
}

TEST(ScalarDistributionTest, SamplingIsDeterministicPerSeed) {
  const ScalarDistribution dist = ScalarDistribution::StudentT(10.0);
  Rng a(99);
  Rng b(99);
  for (int i = 0; i < 50; ++i) {
    EXPECT_EQ(dist.Sample(a), dist.Sample(b));
  }
}

}  // namespace
}  // namespace htdp
