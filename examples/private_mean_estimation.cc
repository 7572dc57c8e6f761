// Sparse heavy-tailed mean estimation and the Theorem 9 lower bound.
//
// Builds the paper's hard instance family {(1-p) P_0 + p P_v} over a
// sparse packing, runs "alg5_sparse_opt" with the mean loss (an
// (eps, delta)-DP estimator) through the Solver facade, and compares the
// measured risk ||w - theta||^2 against the information-theoretic bound
// Omega(tau min{s* log d, log(1/delta)}/(n eps)).

#include <cstdio>

#include "core/htdp.h"

int main() {
  using namespace htdp;

  const std::size_t d = 128;
  const std::size_t s_star = 8;
  const double tau = 1.0;
  const double delta = 1e-5;

  const Solver* solver =
      SolverRegistry::Global().Find(kSolverAlg5SparseOpt).value();

  std::printf("Theorem 9 hard instance: sparse mean estimation "
              "(d=%zu, s*=%zu, tau=%.1f)\n\n",
              d, s_star, tau);
  std::printf("%8s %10s %14s %16s %14s\n", "n", "epsilon", "p (mixture)",
              "measured risk", "lower bound");

  for (const std::size_t n : {2000u, 8000u, 32000u}) {
    for (const double epsilon : {0.5, 2.0}) {
      Rng rng(n + static_cast<std::uint64_t>(epsilon * 100));
      const SparseMeanHardFamily family(d, s_star, 8, tau, epsilon, delta, n,
                                        rng);
      const std::size_t v = 0;
      const Vector theta = family.Mean(v);
      const Dataset data = family.Sample(v, n, rng);

      const MeanLoss loss;
      const Problem problem = Problem::SparseErm(loss, data, s_star);
      SolverSpec spec;
      spec.budget = PrivacyBudget::Approx(epsilon, delta);
      spec.tau = tau;
      spec.step = 0.25;  // mean loss has curvature 2
      const FitResult result = solver->TryFit(problem, spec, rng).value();

      const double risk = NormL2Squared(Sub(result.w, theta));
      const double bound = SparseMeanHardFamily::LowerBound(
          n, d, s_star, epsilon, delta, tau);
      std::printf("%8zu %10.1f %14.5f %16.5f %14.5f\n", n, epsilon,
                  family.contamination_p(), risk, bound);
    }
  }

  std::printf("\nEvery (eps, delta)-DP estimator must sit above the bound on\n"
              "this family; the measured risk also exposes the O~(sqrt(s*))\n"
              "gap between Theorem 8's upper bound and Theorem 9.\n");
  return 0;
}
