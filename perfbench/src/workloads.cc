#include "workloads.h"

#include <cmath>

#include "data/synthetic.h"
#include "perfbench.h"
#include "rng/distributions.h"
#include "stats/moments.h"

namespace perfbench {
namespace {

using htdp::PrivacyBudget;
using htdp::ScalarDistribution;

constexpr std::size_t kBatchDim = 400;
constexpr std::size_t kSparseTarget = 20;

// delta = n^-1.1, the paper's Section 6.2 choice.
double PaperDelta(std::size_t n) {
  return std::pow(static_cast<double>(n), -1.1);
}

const htdp::Solver* FindSolver(const char* name) {
  return htdp::SolverRegistry::Global().Find(name).value();
}

std::unique_ptr<BatchProblem> MakeProblem(const char* label,
                                          const char* solver, bool logistic,
                                          bool sparse, std::size_t n,
                                          ScalarDistribution features,
                                          ScalarDistribution noise,
                                          double ridge, std::uint64_t seed) {
  auto p = std::make_unique<BatchProblem>(kBatchDim, ridge);
  p->label = label;
  p->solver = FindSolver(solver);
  htdp::Rng rng(seed);
  htdp::Vector w_star =
      sparse ? htdp::MakeSparseTarget(kBatchDim, kSparseTarget, rng)
             : htdp::MakeL1BallTarget(kBatchDim, rng);
  if (sparse && !logistic) {
    for (double& v : w_star) v *= 0.5;  // Theorem 7's ||w*|| <= 1/2
  }
  const htdp::SyntheticConfig config{n, kBatchDim, features, noise};
  p->data = logistic ? htdp::GenerateLogistic(config, w_star, rng)
                     : htdp::GenerateLinear(config, w_star, rng);
  const htdp::Loss* loss = logistic
                               ? static_cast<const htdp::Loss*>(&p->logistic)
                               : static_cast<const htdp::Loss*>(&p->squared);
  p->problem.loss = loss;
  p->problem.data = &p->data;
  if (sparse) {
    p->problem.target_sparsity = kSparseTarget;
  } else {
    p->problem.constraint = &p->ball;
    p->l1_radius = 1.0;
  }
  return p;
}

}  // namespace

std::vector<std::unique_ptr<BatchProblem>> MakeBatchProblems(
    std::uint64_t seed) {
  std::vector<std::unique_ptr<BatchProblem>> problems;
  const ScalarDistribution lognormal = ScalarDistribution::Lognormal(0.0, 0.6);

  // Figure 1 shape: alg1, linear, lognormal features, pure epsilon.
  problems.push_back(MakeProblem("alg1_linear", htdp::kSolverAlg1DpFw, false,
                                 false, 10000, lognormal,
                                 ScalarDistribution::Normal(0.0, 0.1), 0.0,
                                 Mix64(seed ^ 1)));
  // Figure 2 shape: alg1, logistic labels.
  problems.push_back(MakeProblem("alg1_logistic", htdp::kSolverAlg1DpFw, true,
                                 false, 10000, lognormal,
                                 ScalarDistribution::None(), 0.0,
                                 Mix64(seed ^ 2)));
  for (int i = 0; i < 2; ++i) {
    BatchProblem& p = *problems[static_cast<std::size_t>(i)];
    p.spec.budget = PrivacyBudget::Pure(1.0);
    p.spec.tau = htdp::EstimateGradientSecondMoment(
        *p.problem.loss, htdp::FullView(p.data), htdp::Vector(kBatchDim, 0.0));
    p.robust = true;
  }

  // Figure 5 shape: alg2 private LASSO.
  problems.push_back(MakeProblem("alg2_lasso", htdp::kSolverAlg2PrivateLasso,
                                 false, false, 15000, lognormal,
                                 ScalarDistribution::Normal(0.0, 0.1), 0.0,
                                 Mix64(seed ^ 3)));
  problems.back()->spec.budget = PrivacyBudget::Approx(1.0, PaperDelta(15000));

  // Figure 7 shape: alg3 sparse linear regression, N(0, 5) features,
  // lognormal noise; eta0 ~ 2/(3 gamma) with gamma = 25.
  problems.push_back(MakeProblem(
      "alg3_sparse_linreg", htdp::kSolverAlg3SparseLinReg, false, true, 20000,
      ScalarDistribution::Normal(0.0, 5.0),
      ScalarDistribution::Lognormal(0.0, 0.5), 0.0, Mix64(seed ^ 4)));
  problems.back()->spec.budget = PrivacyBudget::Approx(1.0, PaperDelta(20000));
  problems.back()->spec.step = 2.0 / (3.0 * 25.0);

  // Figure 10 shape: alg5 sparse l2-regularized logistic regression.
  problems.push_back(MakeProblem(
      "alg5_sparse_logistic", htdp::kSolverAlg5SparseOpt, true, true, 10000,
      ScalarDistribution::Normal(0.0, 5.0),
      ScalarDistribution::Logistic(0.0, 0.5), 0.01, Mix64(seed ^ 5)));
  {
    BatchProblem& p = *problems.back();
    p.spec.budget = PrivacyBudget::Approx(1.0, PaperDelta(10000));
    p.spec.tau = 25.0;
    p.spec.step = 2.0 / (3.0 * (25.0 / 4.0 + 0.01));
    p.robust = true;
  }
  return problems;
}

double RobustElements(std::size_t n, std::size_t d, int iterations) {
  if (iterations <= 0) return 0.0;
  const std::size_t t = static_cast<std::size_t>(iterations);
  return static_cast<double>(t * (n / t) * d);
}

namespace {

std::vector<ServeRequest> MakeAlg1Requests(std::uint64_t seed, int count,
                                           std::size_t n, std::size_t d,
                                           int iterations, double epsilon,
                                           bool medium) {
  std::vector<ServeRequest> out;
  htdp::Rng rng(seed);
  const htdp::SyntheticConfig config{n, d,
                                     ScalarDistribution::Lognormal(0.0, 0.6),
                                     ScalarDistribution::Normal(0.0, 0.1)};
  for (int i = 0; i < count; ++i) {
    ServeRequest r;
    r.medium = medium;
    r.epsilon = epsilon;
    r.n = n;
    r.d = d;
    r.request.solver = htdp::kSolverAlg1DpFw;
    r.request.spec.budget = PrivacyBudget::Pure(epsilon);
    // Pinned schedule: measures serving, not the auto-solver.
    r.request.spec.iterations = iterations;
    r.request.spec.scale = 5.0;
    const htdp::Vector w_star = htdp::MakeL1BallTarget(d, rng);
    r.request.problem.data = htdp::GenerateLinear(config, w_star, rng);
    r.request.problem.loss = htdp::net::kWireLossSquared;
    r.request.problem.constraint = htdp::net::WireConstraint::kL1Ball;
    r.request.problem.constraint_radius = 1.0;
    out.push_back(std::move(r));
  }
  return out;
}

}  // namespace

std::vector<ServeRequest> MakeSmallRequests(std::uint64_t seed, int count) {
  return MakeAlg1Requests(Mix64(seed ^ 11), count, 400, 10, 5, 1.0, false);
}

std::vector<ServeRequest> MakeMediumRequests(std::uint64_t seed, int count) {
  return MakeAlg1Requests(Mix64(seed ^ 12), count, 8000, 64, 4, 0.5, true);
}

}  // namespace perfbench
