#include <cmath>
#include <cstddef>
#include <memory>

#include "api/solver_common.h"
#include "api/solver_registry.h"
#include "core/hyperparams.h"
#include "data/synthetic.h"
#include "gtest/gtest.h"
#include "linalg/sparse_ops.h"
#include "optim/polytope.h"
#include "rng/rng.h"
#include "stats/metrics.h"

namespace htdp {
namespace {

// Figure 7 configuration: x ~ N(0, 5), heavy-tailed noise.
Dataset SparseLinearData(std::size_t n, std::size_t d, const Vector& w_star,
                         const ScalarDistribution& noise, Rng& rng) {
  SyntheticConfig config;
  config.n = n;
  config.d = d;
  config.feature_dist = ScalarDistribution::Normal(0.0, 5.0);
  config.noise_dist = noise;
  return GenerateLinear(config, w_star, rng);
}

// Half-magnitude target so the ||w*|| <= 1/2 condition of Theorem 7 holds.
Vector HalfBallSparseTarget(std::size_t d, std::size_t s, Rng& rng) {
  Vector w = MakeSparseTarget(d, s, rng);
  Scale(0.5, w);
  return w;
}

SolverSpec Alg3Spec(double epsilon, double delta) {
  SolverSpec spec;
  spec.budget = PrivacyBudget::Approx(epsilon, delta);
  return spec;
}

FitResult FitAlg3(const Dataset& data, const Vector& w0,
                  std::size_t target_sparsity, const SolverSpec& spec,
                  Rng& rng) {
  Problem problem;
  problem.data = &data;
  problem.w0 = w0;
  problem.target_sparsity = target_sparsity;
  return SolverRegistry::Global()
      .Find(kSolverAlg3SparseLinReg)
      .value()
      ->TryFit(problem, spec, rng)
      .value();
}

TEST(HtSparseLinRegTest, OutputIsSparseAndInUnitBall) {
  Rng rng(3);
  const std::size_t d = 100;
  const std::size_t s_star = 5;
  const Vector w_star = HalfBallSparseTarget(d, s_star, rng);
  const Dataset data = SparseLinearData(
      5000, d, w_star, ScalarDistribution::Lognormal(0.0, 0.5), rng);

  const FitResult result =
      FitAlg3(data, Vector(d, 0.0), s_star, Alg3Spec(1.0, 1e-5), rng);

  EXPECT_LE(NormL0(result.w), result.sparsity_used);
  EXPECT_LE(NormL2(result.w), 1.0 + 1e-9);
  EXPECT_EQ(result.sparsity_used, 2 * s_star);
}

TEST(HtSparseLinRegTest, LedgerComposesInParallelAcrossFolds) {
  Rng rng(5);
  const std::size_t d = 60;
  const Vector w_star = HalfBallSparseTarget(d, 4, rng);
  const Dataset data = SparseLinearData(
      3000, d, w_star, ScalarDistribution::Lognormal(0.0, 0.5), rng);
  const auto result =
      FitAlg3(data, Vector(d, 0.0), 4, Alg3Spec(0.5, 1e-6), rng);

  EXPECT_EQ(result.ledger.entries().size(),
            static_cast<std::size_t>(result.iterations));
  EXPECT_NEAR(result.ledger.TotalEpsilon(), 0.5, 1e-12);
  EXPECT_NEAR(result.ledger.TotalDelta(), 1e-6, 1e-15);
}

TEST(HtSparseLinRegTest, AutoScheduleMatchesSection62) {
  Alg3Schedule schedule;
  ASSERT_TRUE(
      TrySolveAlg3Schedule(50000, PrivacyBudget::Pure(1.0), 20, 2, &schedule)
          .ok());
  EXPECT_EQ(schedule.iterations,
            static_cast<int>(std::floor(std::log(50000.0))));
  EXPECT_EQ(schedule.sparsity, 40u);
  const double expected_k = std::pow(
      50000.0 / (40.0 * schedule.iterations), 0.25);
  EXPECT_NEAR(schedule.shrinkage, expected_k, 1e-9);
}

TEST(HtSparseLinRegTest, RecoversSupportWithLargeBudget) {
  Rng rng(7);
  const std::size_t d = 80;
  const std::size_t s_star = 4;
  const Vector w_star = HalfBallSparseTarget(d, s_star, rng);
  const Dataset data = SparseLinearData(
      40000, d, w_star, ScalarDistribution::Normal(0.0, 0.1), rng);

  SolverSpec spec = Alg3Spec(20.0, 1e-5);  // effectively non-private
  spec.step = 0.02;  // features have variance 25: keep eta/gamma stable
  const auto result = FitAlg3(data, Vector(d, 0.0), s_star, spec, rng);

  const SupportRecovery recovery = EvaluateSupportRecovery(result.w, w_star);
  EXPECT_GT(recovery.recall, 0.7);
}

TEST(HtSparseLinRegTest, EstimationErrorDecreasesWithSampleSize) {
  const std::size_t d = 120;
  const std::size_t s_star = 5;

  auto average_error = [&](std::size_t n, std::uint64_t seed) {
    double total = 0.0;
    const int trials = 3;
    Rng rng(seed);
    for (int t = 0; t < trials; ++t) {
      const Vector w_star = HalfBallSparseTarget(d, s_star, rng);
      const Dataset data = SparseLinearData(
          n, d, w_star, ScalarDistribution::Lognormal(0.0, 0.5), rng);
      SolverSpec spec = Alg3Spec(2.0, 1e-5);
      spec.step = 0.02;
      const auto result = FitAlg3(data, Vector(d, 0.0), s_star, spec, rng);
      total += EstimationError(result.w, w_star);
    }
    return total / trials;
  };

  EXPECT_LT(average_error(40000, 3002), average_error(2000, 3001));
}

TEST(HtSparseLinRegTest, ExplicitOverridesRespected) {
  Rng rng(11);
  const std::size_t d = 30;
  const Vector w_star = HalfBallSparseTarget(d, 3, rng);
  const Dataset data = SparseLinearData(
      1000, d, w_star, ScalarDistribution::Lognormal(0.0, 0.5), rng);
  SolverSpec spec = Alg3Spec(1.0, 1e-5);
  spec.iterations = 4;
  spec.sparsity = 9;
  spec.shrinkage = 2.0;
  const auto result = FitAlg3(data, Vector(d, 0.0), 0, spec, rng);
  EXPECT_EQ(result.iterations, 4);
  EXPECT_EQ(result.sparsity_used, 9u);
  EXPECT_NEAR(result.shrinkage_used, 2.0, 1e-15);
}

TEST(HtSparseLinRegDeathTest, RequiresSomeSparsityTarget) {
  Rng rng(13);
  Dataset data;
  data.x = Matrix(100, 10);
  data.y.assign(100, 0.0);
  // Neither sparsity nor target set.
  EXPECT_DEATH(
      FitAlg3(data, Vector(10, 0.0), 0, Alg3Spec(1.0, 1e-5), rng),
      "target_sparsity");
}

TEST(HtSparseLinRegTest, HeavyNoiseStillProducesBoundedIterate) {
  Rng rng(17);
  const std::size_t d = 50;
  const Vector w_star = HalfBallSparseTarget(d, 5, rng);
  const Dataset data = SparseLinearData(
      4000, d, w_star, ScalarDistribution::LogLogistic(0.1), rng);
  const auto result =
      FitAlg3(data, Vector(d, 0.0), 5, Alg3Spec(1.0, 1e-5), rng);
  EXPECT_TRUE(std::isfinite(NormL2(result.w)));
  EXPECT_LE(NormL2(result.w), 1.0 + 1e-9);
}

TEST(HtSparseLinRegTest, StreamedShrinkageMatchesShrunkenCopyBitForBit) {
  // Shrinkage is idempotent, so fitting the raw data (alg3 shrinks each row
  // as it reads it; alg2 shrinks a copy) must give exactly the fit of the
  // pre-shrunken data at the same resolved K. d = 200 keeps the Dot and
  // Axpy kernels on their vector paths.
  Rng data_rng(23);
  const std::size_t d = 200;
  const Vector w_star = HalfBallSparseTarget(d, 4, data_rng);
  SyntheticConfig config;
  config.n = 4000;
  config.d = d;
  config.feature_dist = ScalarDistribution::StudentT(3.0);
  config.noise_dist = ScalarDistribution::Lognormal(0.0, 1.0);
  const Dataset raw = GenerateLinear(config, w_star, data_rng);
  const L1Ball ball(d, 1.0);

  for (const char* name : {kSolverAlg3SparseLinReg, kSolverAlg2PrivateLasso}) {
    const std::unique_ptr<Solver> solver =
        SolverRegistry::Global().TryCreate(name).value();
    Problem problem;
    problem.data = &raw;
    problem.constraint = &ball;
    problem.target_sparsity = 4;
    SolverSpec spec;
    spec.budget = PrivacyBudget::Approx(1.0, 1e-5);
    Rng raw_rng(43);
    const FitResult from_raw =
        solver->TryFit(problem, spec, raw_rng).value();

    const Dataset shrunken = ShrinkDataset(FullView(raw),
                                           from_raw.shrinkage_used);
    problem.data = &shrunken;
    spec.shrinkage = from_raw.shrinkage_used;
    Rng shrunken_rng(43);
    const FitResult from_shrunken =
        solver->TryFit(problem, spec, shrunken_rng).value();

    EXPECT_EQ(from_raw.iterations, from_shrunken.iterations) << name;
    EXPECT_EQ(from_raw.selected, from_shrunken.selected) << name;
    ASSERT_EQ(from_raw.w.size(), d) << name;
    for (std::size_t j = 0; j < d; ++j) {
      ASSERT_EQ(from_raw.w[j], from_shrunken.w[j]) << name << " coordinate "
                                                  << j;
    }
  }
}

}  // namespace
}  // namespace htdp
