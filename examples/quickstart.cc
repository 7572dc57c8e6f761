// Quickstart: private linear regression on heavy-tailed data in ~50 lines,
// through the unified Solver facade.
//
// Generates lognormal features (unbounded gradients -- exactly the regime
// where clipping-based DP methods lose their guarantees), fits Algorithm 1
// (Heavy-tailed DP-FW, pure epsilon-DP) by registry name over the unit l1
// ball, and compares against the non-private Frank-Wolfe optimum.
//
// Build & run:  ./build/examples/quickstart

#include <cstdio>

#include "core/htdp.h"

int main() {
  using namespace htdp;

  Rng rng(2022);
  const std::size_t n = 20000;
  const std::size_t d = 200;

  // y = <w*, x> + noise with x_ij ~ Lognormal(0, 0.6) (Section 6.1).
  SyntheticConfig config;
  config.n = n;
  config.d = d;
  config.feature_dist = ScalarDistribution::Lognormal(0.0, 0.6);
  config.noise_dist = ScalarDistribution::Normal(0.0, 0.1);
  const Vector w_star = MakeL1BallTarget(d, rng);
  const Dataset data = GenerateLinear(config, w_star, rng);

  const SquaredLoss loss;
  const L1Ball ball(d, 1.0);

  // WHAT to solve: loss + data + constraint geometry.
  const Problem problem = Problem::ConstrainedErm(loss, data, ball);

  // HOW to solve it: an epsilon-DP budget; every schedule knob left at 0 is
  // auto-solved from the paper's theorems. tau is the coordinate-wise
  // second-moment bound on the gradient (Assumption 1), estimated offline.
  SolverSpec spec;
  spec.budget = PrivacyBudget::Pure(1.0);
  spec.tau =
      EstimateGradientSecondMoment(loss, FullView(data), Vector(d, 0.0));

  // WHO solves it: any registered algorithm, by name. TryFit returns a
  // typed Status instead of aborting on a configuration it cannot fit.
  const Solver* solver =
      SolverRegistry::Global().Find(kSolverAlg1DpFw).value();
  const StatusOr<FitResult> fit = solver->TryFit(problem, spec, rng);
  if (!fit.ok()) {
    std::fprintf(stderr, "fit failed: %s\n",
                 fit.status().ToString().c_str());
    return 1;
  }
  const FitResult& priv = *fit;

  FrankWolfeOptions fw;
  fw.iterations = 120;
  const FrankWolfeResult nonpriv =
      MinimizeFrankWolfe(loss, data, ball, Vector(d, 0.0), fw);

  std::printf("n = %zu, d = %zu, epsilon = %.1f (pure eps-DP)\n", n, d,
              spec.budget.epsilon);
  std::printf("estimated tau (grad 2nd moment bound): %.3f\n", spec.tau);
  std::printf("schedule: T = %d folds, truncation scale s = %.2f\n",
              priv.iterations, priv.scale_used);
  std::printf("privacy ledger total: eps = %.3f, delta = %.1e\n",
              priv.ledger.TotalEpsilon(), priv.ledger.TotalDelta());
  std::printf("excess empirical risk  (private): %.4f\n",
              ExcessEmpiricalRisk(loss, data, priv.w, w_star));
  std::printf("excess empirical risk (non-priv): %.4f\n",
              ExcessEmpiricalRisk(loss, data, nonpriv.w, w_star));
  std::printf("fit wall-clock: %.3f s\n", priv.seconds);
  return 0;
}
