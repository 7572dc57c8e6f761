#ifndef HTDP_PERFBENCH_WORKLOADS_H_
#define HTDP_PERFBENCH_WORKLOADS_H_

// The generated inputs of the three workloads. Everything here is a pure
// function of the workload seed; the program under test sees only these
// inputs.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "api/api.h"
#include "losses/logistic_loss.h"
#include "losses/squared_loss.h"
#include "net/serialize.h"
#include "optim/polytope.h"

namespace perfbench {

/// One fit_batch problem: a paper-shaped heavy-tailed dataset with its loss,
/// constraint and an auto-solved schedule (only the budget, tau and step
/// are set, as in the figure benches).
struct BatchProblem {
  BatchProblem(std::size_t d, double ridge) : logistic(ridge), ball(d, 1.0) {}
  BatchProblem(const BatchProblem&) = delete;
  BatchProblem& operator=(const BatchProblem&) = delete;

  std::string label;
  const htdp::Solver* solver = nullptr;
  htdp::Dataset data;
  htdp::SquaredLoss squared;
  htdp::LogisticLoss logistic;
  htdp::L1Ball ball;
  htdp::Problem problem;
  htdp::SolverSpec spec;
  double l1_radius = 0.0;  // > 0: l1-ball constraint; 0: sparsity target
  bool robust = false;     // runs the Catoni robust gradient over folds
};

/// alg1 linear and logistic over the l1 ball, alg2 LASSO, alg3 sparse
/// linear regression and alg5 sparse logistic; d = 400, n in [1e4, 2e4],
/// epsilon = 1.
std::vector<std::unique_ptr<BatchProblem>> MakeBatchProblems(
    std::uint64_t seed);

/// Elements (rows x cols) the robust gradient reads in one fit: the T
/// disjoint folds of floor(n / T) rows each.
double RobustElements(std::size_t n, std::size_t d, int iterations);

/// A serving request and what the gate needs to know about it.
struct ServeRequest {
  htdp::net::SubmitRequest request;  // seed is set per send
  bool medium = false;
  double epsilon = 0.0;
  std::size_t n = 0;
  std::size_t d = 0;
  double l1_radius = 1.0;
};

/// The pinned small fit of BM_DaemonRoundTrip: alg1, n = 400, d = 10,
/// T = 5, over the unit l1 ball. `count` distinct datasets.
std::vector<ServeRequest> MakeSmallRequests(std::uint64_t seed, int count);

/// The medium fit of serve_tenants: alg1, n = 8000, d = 64, T = 4, so each
/// fold has 2000 >= 1024 rows and every robust gradient dispatches to the
/// shared worker pool; about 4 MB on the wire.
std::vector<ServeRequest> MakeMediumRequests(std::uint64_t seed, int count);

}  // namespace perfbench

#endif  // HTDP_PERFBENCH_WORKLOADS_H_
