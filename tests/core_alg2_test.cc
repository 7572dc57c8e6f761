#include <algorithm>
#include <cmath>
#include <cstddef>
#include <memory>
#include <vector>

#include "api/solver_common.h"
#include "api/solver_registry.h"
#include "core/hyperparams.h"
#include "data/synthetic.h"
#include "dp/privacy.h"
#include "gtest/gtest.h"
#include "kernel_modes.h"
#include "losses/loss.h"
#include "losses/squared_loss.h"
#include "optim/polytope.h"
#include "rng/distributions.h"
#include "rng/rng.h"
#include "util/simd.h"
#include "util/simd_dispatch.h"

namespace htdp {
namespace {

Dataset HeavyTailedLinearData(std::size_t n, std::size_t d,
                              const ScalarDistribution& features,
                              const Vector& w_star, Rng& rng) {
  SyntheticConfig config;
  config.n = n;
  config.d = d;
  config.feature_dist = features;
  config.noise_dist = ScalarDistribution::Normal(0.0, 0.1);
  return GenerateLinear(config, w_star, rng);
}

SolverSpec Alg2Spec(double epsilon) {
  SolverSpec spec;
  spec.budget = PrivacyBudget::Approx(epsilon, 1e-5);
  return spec;
}

FitResult FitAlg2(const Dataset& data, const Polytope& polytope,
                  const Vector& w0, const SolverSpec& spec, Rng& rng) {
  Problem problem;
  problem.data = &data;
  problem.constraint = &polytope;
  problem.w0 = w0;
  return SolverRegistry::Global()
      .Find(kSolverAlg2PrivateLasso)
      .value()
      ->TryFit(problem, spec, rng)
      .value();
}

TEST(HtPrivateLassoTest, AdvancedCompositionStaysWithinBudget) {
  Rng rng(3);
  const std::size_t d = 10;
  const Vector w_star = MakeL1BallTarget(d, rng);
  const Dataset data = HeavyTailedLinearData(
      2000, d, ScalarDistribution::Lognormal(0.0, 0.6), w_star, rng);
  const L1Ball ball(d, 1.0);

  const FitResult result =
      FitAlg2(data, ball, Vector(d, 0.0), Alg2Spec(1.0), rng);

  EXPECT_EQ(result.ledger.entries().size(),
            static_cast<std::size_t>(result.iterations));
  // Every step uses the Lemma 2 per-step budget.
  const double per_step = AdvancedCompositionStepEpsilon(
      1.0, 1e-5, result.iterations);
  for (const auto& entry : result.ledger.entries()) {
    EXPECT_NEAR(entry.epsilon, per_step, 1e-12);
    EXPECT_NEAR(entry.delta, 1e-5 / result.iterations, 1e-18);
  }
  // Sequential sums (the ledger uses basic composition, which upper-bounds
  // the advanced-composition accounting the algorithm relies on).
  EXPECT_NEAR(result.ledger.TotalDelta(), 1e-5, 1e-15);
}

TEST(HtPrivateLassoTest, AutoScheduleMatchesSection62) {
  Alg2Schedule schedule;
  ASSERT_TRUE(
      TrySolveAlg2Schedule(10000, PrivacyBudget::Pure(1.0), &schedule).ok());
  EXPECT_EQ(schedule.iterations,
            static_cast<int>(std::ceil(std::pow(10000.0, 0.4))));
  const double expected_k =
      std::pow(10000.0, 0.25) /
      std::pow(static_cast<double>(schedule.iterations), 0.125);
  EXPECT_NEAR(schedule.shrinkage, expected_k, 1e-9);
}

TEST(HtPrivateLassoTest, IterateStaysInPolytope) {
  Rng rng(5);
  const std::size_t d = 12;
  const Vector w_star = MakeL1BallTarget(d, rng);
  const Dataset data = HeavyTailedLinearData(
      3000, d, ScalarDistribution::StudentT(10.0), w_star, rng);
  const L1Ball ball(d, 1.0);
  const auto result =
      FitAlg2(data, ball, Vector(d, 0.0), Alg2Spec(1.0), rng);
  EXPECT_LE(NormL1(result.w), 1.0 + 1e-9);
}

TEST(HtPrivateLassoTest, OriginalDataIsNotModified) {
  Rng rng(7);
  const std::size_t d = 5;
  const Vector w_star = MakeL1BallTarget(d, rng);
  Dataset data = HeavyTailedLinearData(
      500, d, ScalarDistribution::Lognormal(0.0, 1.0), w_star, rng);
  const double before = data.x(3, 2);
  const L1Ball ball(d, 1.0);
  FitAlg2(data, ball, Vector(d, 0.0), Alg2Spec(1.0), rng);
  EXPECT_EQ(data.x(3, 2), before);
}

TEST(HtPrivateLassoTest, ErrorDecreasesWithSampleSize) {
  const std::size_t d = 15;
  const SquaredLoss loss;
  const L1Ball ball(d, 1.0);

  auto average_excess = [&](std::size_t n, std::uint64_t seed) {
    double total = 0.0;
    const int trials = 3;
    Rng rng(seed);
    for (int t = 0; t < trials; ++t) {
      const Vector w_star = MakeL1BallTarget(d, rng);
      const Dataset data = HeavyTailedLinearData(
          n, d, ScalarDistribution::Lognormal(0.0, 0.6), w_star, rng);
      const auto result =
          FitAlg2(data, ball, Vector(d, 0.0), Alg2Spec(1.0), rng);
      total += ExcessEmpiricalRisk(loss, data, result.w, w_star);
    }
    return total / trials;
  };

  EXPECT_LT(average_excess(20000, 2002), average_excess(1200, 2001));
}

TEST(HtPrivateLassoTest, LargeBudgetApproachesNonPrivateSolution) {
  Rng rng(11);
  const std::size_t d = 8;
  const Vector w_star = MakeL1BallTarget(d, rng);
  const Dataset data = HeavyTailedLinearData(
      20000, d, ScalarDistribution::Lognormal(0.0, 0.6), w_star, rng);
  const L1Ball ball(d, 1.0);
  const SquaredLoss loss;

  const auto result =
      FitAlg2(data, ball, Vector(d, 0.0), Alg2Spec(50.0), rng);
  EXPECT_LT(ExcessEmpiricalRisk(loss, data, result.w, w_star), 0.3);
}

TEST(HtPrivateLassoTest, ShrinkageThresholdIsRecorded) {
  Rng rng(13);
  const std::size_t d = 4;
  const Vector w_star = MakeL1BallTarget(d, rng);
  const Dataset data = HeavyTailedLinearData(
      1000, d, ScalarDistribution::Lognormal(0.0, 0.6), w_star, rng);
  const L1Ball ball(d, 1.0);
  SolverSpec spec = Alg2Spec(1.0);
  spec.iterations = 10;
  spec.shrinkage = 3.5;
  const auto result = FitAlg2(data, ball, Vector(d, 0.0), spec, rng);
  EXPECT_EQ(result.iterations, 10);
  EXPECT_NEAR(result.shrinkage_used, 3.5, 1e-15);
}

TEST(HtPrivateLassoTest, DeterministicGivenSeed) {
  Rng data_rng(17);
  const std::size_t d = 6;
  const Vector w_star = MakeL1BallTarget(d, data_rng);
  const Dataset data = HeavyTailedLinearData(
      800, d, ScalarDistribution::StudentT(10.0), w_star, data_rng);
  const L1Ball ball(d, 1.0);
  const SolverSpec spec = Alg2Spec(1.0);
  Rng a(5);
  Rng b(5);
  const auto result_a = FitAlg2(data, ball, Vector(d, 0.0), spec, a);
  const auto result_b = FitAlg2(data, ball, Vector(d, 0.0), spec, b);
  for (std::size_t j = 0; j < d; ++j) {
    EXPECT_EQ(result_a.w[j], result_b.w[j]);
  }
}

// ---------------------------------------------------------------------------
// The second-moment path: alg2 computes xx = (1/n) sum x~ x~^T and
// xy = (1/n) sum y~ x~ in one pass and takes every step's gradient as
// 2 (xx w - xy).
// ---------------------------------------------------------------------------

TEST(ShrunkenMomentsTest, MatchesNaiveSumsOverTheShrunkenCopy) {
  // d covers lane tails (1, 7, 403) and whole lane groups (16, 400); n
  // covers fewer rows than one rank-update block (1, 5), a single 512-row
  // chunk (600) and several chunks (3000).
  for (const std::size_t d : {1u, 7u, 16u, 400u, 403u}) {
    for (const std::size_t n : {1u, 5u, 600u, 3000u}) {
      SCOPED_TRACE(::testing::Message() << "n=" << n << " d=" << d);
      Rng rng(1000 + 7 * d + n);
      Dataset data;
      data.x = Matrix(n, d);
      data.y.resize(n);
      for (double& v : data.x.data()) v = SampleStudentT(rng, 3.0);
      for (double& v : data.y) v = SampleStudentT(rng, 3.0);
      const double threshold = 2.5;

      // Reference: naive sequential sums over ShrinkDataset's copy (upper
      // triangle, l >= j), with the matching sums of absolute products as
      // the error scale.
      const Dataset shrunken = ShrinkDataset(FullView(data), threshold);
      std::vector<double> xx(d * d, 0.0);
      std::vector<double> xx_abs(d * d, 0.0);
      Vector xy(d, 0.0);
      Vector xy_abs(d, 0.0);
      for (std::size_t i = 0; i < n; ++i) {
        const double* x = shrunken.x.Row(i);
        for (std::size_t j = 0; j < d; ++j) {
          xy[j] += shrunken.y[i] * x[j];
          xy_abs[j] += std::abs(shrunken.y[i] * x[j]);
          for (std::size_t l = j; l < d; ++l) {
            xx[j * d + l] += x[j] * x[l];
            xx_abs[j * d + l] += std::abs(x[j] * x[l]);
          }
        }
      }
      const double inv_n = 1.0 / static_cast<double>(n);

      ForEachKernelMode([&](SimdMode mode) {
        const SecondMoments moments =
            ShrunkenMoments(FullView(data), threshold, mode);
        ASSERT_EQ(moments.xx.rows(), d);
        ASSERT_EQ(moments.xx.cols(), d);
        ASSERT_EQ(moments.xy.size(), d);
        for (std::size_t j = 0; j < d; ++j) {
          ASSERT_NEAR(moments.xy[j], xy[j] * inv_n,
                      1e-12 * xy_abs[j] * inv_n + 1e-300)
              << "xy[" << j << "]";
          for (std::size_t l = j; l < d; ++l) {
            ASSERT_NEAR(moments.xx(j, l), xx[j * d + l] * inv_n,
                        1e-12 * xx_abs[j * d + l] * inv_n + 1e-300)
                << "xx(" << j << ", " << l << ")";
            ASSERT_EQ(moments.xx(l, j), moments.xx(j, l))
                << "xx(" << l << ", " << j << ") is not the mirror";
          }
        }
      });
    }
  }
}

TEST(ShrunkenMomentsTest, MomentsGradientMatchesEmpiricalGradient) {
  const std::size_t n = 1500;
  const std::size_t d = 37;
  Rng rng(71);
  const Vector w_star = MakeL1BallTarget(d, rng);
  const Dataset data = HeavyTailedLinearData(
      n, d, ScalarDistribution::StudentT(3.0), w_star, rng);
  const double threshold = 3.0;
  const Dataset shrunken = ShrinkDataset(FullView(data), threshold);
  const SecondMoments moments = ShrunkenMoments(FullView(data), threshold);
  const SquaredLoss loss;

  Vector vertex(d, 0.0);
  vertex[5] = -1.0;
  Vector interior(d);
  for (double& v : interior) v = rng.Uniform(-1.0, 1.0);
  const double l1 = NormL1(interior);
  for (double& v : interior) v *= 0.9 / l1;

  for (const Vector& w : {Vector(d, 0.0), vertex, interior}) {
    Vector want;
    EmpiricalGradient(loss, FullView(shrunken), w, want);
    Vector got;
    MomentsGradient(moments, w, got);
    ASSERT_EQ(got.size(), d);
    // |g_j| <= 2 K^2 (||w||_1 + 1), the bound behind alg2's sensitivity.
    const double scale = 2.0 * threshold * threshold * (NormL1(w) + 1.0);
    for (std::size_t j = 0; j < d; ++j) {
      EXPECT_NEAR(got[j], want[j], 1e-12 * scale) << "coordinate " << j;
    }
  }
}

struct Alg2Golden {
  std::size_t n;
  std::size_t d;
  std::uint64_t data_seed;
  bool moments;           // the side of UseShrunkenMoments the fit is on
  double checksum;        // sum_i (i+1) * w_i of the final iterate
  double total_epsilon;   // ledger TotalEpsilon
  double total_delta;     // ledger TotalDelta
};

TEST(HtPrivateLassoGoldenTest, BothGradientPathsReproduceStreamedFits) {
  // Pinned from the streamed-gradient implementation (every step through
  // EmpiricalGradient over a shrunken copy) on the scalar reference path.
  // One shape on each side of UseShrunkenMoments. The budget is large and
  // w* has two strong coordinates, so the gradient rather than the Gumbel
  // noise decides the picks (the fits recover w*'s support): a pick
  // flipped by the moments' reassociated sums, or a broken gradient on
  // either side, fails here.
  ScopedSimdOverride scalar_reference(false);
  const Alg2Golden cases[] = {
      {2000, 40, 61, true, -1.5757575757575757, 64.002513072113899,
       1.0000000000000004e-05},
      {1500, 200, 67, false, -3.5151515151515151, 64.002513072113899,
       1.0000000000000004e-05},
  };
  const std::unique_ptr<Solver> solver =
      SolverRegistry::Global().TryCreate(kSolverAlg2PrivateLasso).value();
  for (const Alg2Golden& golden : cases) {
    SCOPED_TRACE(::testing::Message() << golden.n << "x" << golden.d);
    Rng data_rng(golden.data_seed);
    Vector w_star(golden.d, 0.0);
    w_star[3] = 0.6;
    w_star[11] = -0.3;
    const Dataset data =
        HeavyTailedLinearData(golden.n, golden.d,
                              ScalarDistribution::Lognormal(0.0, 0.6),
                              w_star, data_rng);
    const SquaredLoss loss;
    const L1Ball ball(golden.d, 1.0);
    SolverSpec spec;
    spec.budget = PrivacyBudget::Approx(200.0, 1e-5);
    spec.iterations = 10;
    spec.shrinkage = 3.0;
    EXPECT_EQ(UseShrunkenMoments(golden.n, golden.d, spec.iterations),
              golden.moments);
    Rng rng(7);
    const StatusOr<FitResult> fit =
        solver->TryFit(Problem::ConstrainedErm(loss, data, ball), spec, rng);
    ASSERT_TRUE(fit.ok()) << fit.status().ToString();
    double checksum = 0.0;
    for (std::size_t i = 0; i < fit->w.size(); ++i) {
      checksum += fit->w[i] * static_cast<double>(i + 1);
    }
    const double scale = std::max(std::abs(golden.checksum), 1.0);
    EXPECT_NEAR(checksum, golden.checksum, 1e-12 * scale);
    EXPECT_NEAR(fit->ledger.TotalEpsilon(), golden.total_epsilon, 1e-12);
    EXPECT_NEAR(fit->ledger.TotalDelta(), golden.total_delta, 1e-18);
  }
}

}  // namespace
}  // namespace htdp
