// l0-constrained regularized logistic regression ("alg5_sparse_opt").
//
// The Figure 10 workload: an l2-regularized logistic GLM satisfying
// Assumption 4, solved privately over the sparsity constraint with the
// robust-gradient + Peeling iteration. Shows the epsilon sweep through the
// Solver facade.

#include <cstdio>

#include "core/htdp.h"

int main() {
  using namespace htdp;

  const std::size_t n = 20000;
  const std::size_t d = 100;
  const std::size_t s_star = 8;
  const double ridge = 0.01;

  Rng data_rng(7);
  const Vector w_star = MakeSparseTarget(d, s_star, data_rng);
  SyntheticConfig config;
  config.n = n;
  config.d = d;
  config.feature_dist = ScalarDistribution::Normal(0.0, 1.0);
  config.noise_dist = ScalarDistribution::Logistic(0.0, 0.5);
  const Dataset data = GenerateLogistic(config, w_star, data_rng);

  const LogisticLoss loss(ridge);
  const double zero_risk = EmpiricalRisk(loss, data, Vector(d, 0.0));
  const double star_risk = EmpiricalRisk(loss, data, w_star);

  const Problem problem = Problem::SparseErm(loss, data, s_star);
  const Solver* solver =
      SolverRegistry::Global().Find(kSolverAlg5SparseOpt).value();

  std::printf("Algorithm 5: private sparse logistic regression "
              "(n=%zu, d=%zu, s*=%zu, ridge=%.2f)\n",
              n, d, s_star, ridge);
  std::printf("risk at w = 0:  %.4f  |  risk at w*: %.4f\n\n", zero_risk,
              star_risk);
  std::printf("%10s %14s %14s %10s %10s\n", "epsilon", "risk(w_priv)",
              "||w-w*||_2", "supp F1", "T");

  for (const double epsilon : {0.5, 1.0, 2.0, 4.0, 8.0}) {
    Rng rng(1000 + static_cast<std::uint64_t>(epsilon * 10));
    SolverSpec spec;
    spec.budget = PrivacyBudget::Approx(epsilon, 1e-5);
    spec.tau = 1.0;  // E x_j^2 = 1 under N(0,1) features
    const FitResult result = solver->TryFit(problem, spec, rng).value();
    const SupportRecovery support = EvaluateSupportRecovery(result.w, w_star);
    std::printf("%10.1f %14.4f %14.4f %10.3f %10d\n", epsilon,
                EmpiricalRisk(loss, data, result.w),
                EstimationError(result.w, w_star), support.f1,
                result.iterations);
  }

  std::printf("\nLarger budgets reduce both the Peeling noise and the\n"
              "selection error, pulling the risk toward risk(w*).\n");
  return 0;
}
