// Engine quickstart: serve a scenario sweep as concurrent fit jobs drawing
// from ONE shared tenant budget.
//
// The serving shape behind the paper's figures: one dataset, a grid of
// (solver, epsilon) cells, every cell an independent DP fit. Instead of a
// nested loop of blocking TryFit() calls, each cell becomes a FitJob submitted
// to the Engine -- non-aborting (typed Status per job), cancellable, under
// per-job wall-clock deadlines, with aggregate throughput stats. Results
// are bit-identical to sequential TryFit at the same seeds.
//
// New in this revision: tenant budgets. The whole sweep runs on behalf of
// tenant "research", registered in a BudgetManager with one end-to-end
// (epsilon, delta) allowance. Every Submit() reserves the job's budget
// up front (sequential composition across jobs); once the allowance is
// spent, further submissions are rejected inline with a typed
// kBudgetExhausted Status -- before any data is touched.
//
// Build & run:  ./build/examples/engine_sweep

#include <cstdio>
#include <string>
#include <vector>

#include "core/htdp.h"

int main() {
  using namespace htdp;

  const std::size_t n = 12000;
  const std::size_t d = 100;
  const double delta = 1e-5;

  // One heavy-tailed regression workload shared by every job. The Problem
  // only points at the dataset, so all jobs read it concurrently.
  Rng data_rng(2024);
  SyntheticConfig config;
  config.n = n;
  config.d = d;
  config.feature_dist = ScalarDistribution::Lognormal(0.0, 0.6);
  config.noise_dist = ScalarDistribution::Normal(0.0, 0.1);
  const Vector w_star = MakeL1BallTarget(d, data_rng);
  const Dataset data = GenerateLinear(config, w_star, data_rng);
  const SquaredLoss loss;
  const L1Ball ball(d, 1.0);
  const double tau =
      EstimateGradientSecondMoment(loss, FullView(data), Vector(d, 0.0));

  const std::vector<std::string> solvers = {kSolverAlg1DpFw,
                                            kSolverAlg2PrivateLasso};
  const std::vector<double> epsilons = {0.5, 1.0, 2.0, 4.0};

  // The tenant's end-to-end allowance: enough for the first ~10 epsilon of
  // submissions. The sweep requests 15 epsilon total (7.5 per solver), so
  // the Engine admits cells until the allowance runs dry and rejects the
  // rest with kBudgetExhausted -- the over-budget cells never run.
  BudgetManager budgets;
  const PrivacyBudget allowance = PrivacyBudget::Approx(10.0, 1e-3);
  if (Status s = budgets.RegisterTenant("research", allowance); !s.ok()) {
    std::printf("tenant registration failed: %s\n", s.ToString().c_str());
    return 1;
  }

  Engine engine(Engine::Options{/*workers=*/4, &budgets});
  std::vector<JobHandle> handles;
  for (const std::string& name : solvers) {
    for (const double epsilon : epsilons) {
      FitJob job;
      job.solver_name = name;
      job.problem = Problem::ConstrainedErm(loss, data, ball);
      job.spec.budget = name == kSolverAlg1DpFw
                            ? PrivacyBudget::Pure(epsilon)
                            : PrivacyBudget::Approx(epsilon, delta);
      job.spec.tau = tau;
      job.seed = 42;               // fixed seed: reproducible cell results
      job.deadline_seconds = 30;   // a hung cell cannot wedge the sweep
      job.tag = name + " eps=" + std::to_string(epsilon);
      job.tenant = "research";     // every cell draws from the shared budget
      handles.push_back(engine.Submit(std::move(job)));
    }
  }

  // One deliberately broken cell: the Engine never aborts -- the job
  // completes with a typed Status instead (unknown-solver, listing the
  // registered names).
  FitJob broken;
  broken.solver_name = "alg7_does_not_exist";
  broken.problem = Problem::ConstrainedErm(loss, data, ball);
  const JobHandle broken_handle = engine.Submit(std::move(broken));

  std::printf("Engine sweep  (n=%zu, d=%zu, %zu jobs on %d workers, tenant "
              "\"research\" allowance eps=%.1f delta=%.0e)\n\n",
              n, d, handles.size() + 1, engine.workers(), allowance.epsilon,
              allowance.delta);
  std::printf("%-38s %10s %12s %9s\n", "job", "eps spent", "excess risk",
              "seconds");
  std::size_t cell = 0;
  for (const std::string& name : solvers) {
    for (const double epsilon : epsilons) {
      (void)epsilon;
      const JobHandle& handle = handles[cell++];
      const StatusOr<FitResult>& fit = handle.Wait();
      if (!fit.ok()) {
        std::printf("%-38s %s\n", handle.tag().c_str(),
                    fit.status().ToString().c_str());
        continue;
      }
      std::printf("%-38s %10.3f %12.4f %9.3f\n", handle.tag().c_str(),
                  fit->ledger.TotalEpsilon(),
                  ExcessEmpiricalRisk(loss, data, fit->w, w_star),
                  fit->seconds);
    }
    (void)name;
  }

  const StatusOr<FitResult>& rejected = broken_handle.Wait();
  std::printf("\nbroken cell -> %s\n", rejected.status().ToString().c_str());

  const EngineStats stats = engine.stats();
  std::printf(
      "\nEngineStats: %zu submitted, %zu ok, %zu failed (%zu over tenant "
      "budget); %.1f jobs/sec over %.2f s uptime.\n",
      stats.submitted, stats.succeeded, stats.failed, stats.budget_rejected,
      stats.jobs_per_second, stats.uptime_seconds);
  if (const auto remaining = budgets.Remaining("research"); remaining.ok()) {
    std::printf("tenant \"research\": eps %.2f of %.2f left (admitted %zu, "
                "rejected %zu jobs)\n",
                remaining->epsilon, allowance.epsilon,
                budgets.Stats("research")->admitted,
                budgets.Stats("research")->rejected);
  }
  return 0;
}
