#include "harness/scenario.h"

#include <algorithm>
#include <memory>
#include <utility>
#include <vector>

#include "data/synthetic.h"
#include "optim/frank_wolfe.h"
#include "stats/moments.h"
#include "util/check.h"

namespace htdp {

std::unique_ptr<ScenarioWorkload> MakeScenarioWorkload(
    const Scenario& scenario, std::uint64_t seed) {
  HTDP_CHECK_GT(scenario.n, 0u);
  HTDP_CHECK_GT(scenario.d, 0u);
  const std::size_t d = scenario.d;
  auto workload = std::make_unique<ScenarioWorkload>(d, scenario.ridge);
  Rng rng(seed);

  // Workload: target, then data, drawn in that order (matching the legacy
  // bench trial runners so historical bench output stays comparable).
  workload->w_star = scenario.target == Scenario::Target::kSparse
                         ? MakeSparseTarget(d, scenario.target_sparsity, rng)
                         : MakeL1BallTarget(d, rng);
  if (scenario.target_scale != 1.0) {
    Scale(scenario.target_scale, workload->w_star);
  }
  const SyntheticConfig config{scenario.n, d, scenario.features,
                               scenario.noise};
  workload->data = scenario.model == Scenario::Model::kLogistic
                       ? GenerateLogistic(config, workload->w_star, rng)
                       : GenerateLinear(config, workload->w_star, rng);
  workload->rng = rng;  // the fit continues this stream

  workload->loss = scenario.model == Scenario::Model::kLogistic
                       ? static_cast<const Loss*>(&workload->logistic)
                       : static_cast<const Loss*>(&workload->squared);

  const StatusOr<const Solver*> solver =
      SolverRegistry::Global().Find(scenario.solver);
  HTDP_CHECK(solver.ok()) << " " << solver.status().message();
  workload->solver = *solver;

  workload->problem.loss = workload->loss;
  workload->problem.data = &workload->data;
  if (workload->solver->requires_constraint()) {
    workload->problem.constraint = &workload->ball;
  }
  workload->problem.target_sparsity = scenario.target_sparsity;

  workload->spec = scenario.spec;
  if (scenario.estimate_tau) {
    workload->spec.tau = EstimateGradientSecondMoment(
        *workload->loss, FullView(workload->data), Vector(d, 0.0));
  }
  return workload;
}

FitJob MakeScenarioJob(const Scenario& scenario,
                       const ScenarioWorkload& workload) {
  FitJob job;
  job.solver = workload.solver;  // already resolved; skip the Submit lookup
  job.solver_name = scenario.solver;
  job.problem = workload.problem;
  job.spec = workload.spec;
  job.rng = workload.rng;
  job.tag = scenario.solver;
  return job;
}

double ScenarioMetric(const Scenario& scenario,
                      const ScenarioWorkload& workload,
                      const FitResult& fit) {
  const double reference =
      scenario.metric == Scenario::Metric::kExcessRiskVsBestReference
          ? BestReferenceRisk(*workload.loss, workload.data, workload.ball,
                              workload.w_star,
                              scenario.reference_fw_iterations)
          : EmpiricalRisk(*workload.loss, workload.data, workload.w_star);
  return EmpiricalRisk(*workload.loss, workload.data, fit.w) - reference;
}

double RunScenarioTrial(const Scenario& scenario, std::uint64_t seed) {
  const std::unique_ptr<ScenarioWorkload> workload =
      MakeScenarioWorkload(scenario, seed);
  const FitResult fit =
      workload->solver
          ->TryFit(workload->problem, workload->spec, workload->rng)
          .value();
  return ScenarioMetric(scenario, *workload, fit);
}

Summary RunScenarioTrials(Engine& engine, const Scenario& scenario,
                          int trials, std::uint64_t seed) {
  HTDP_CHECK_GE(trials, 1);
  // The same per-trial seed derivation as RunTrials, so the engine sweep
  // reproduces the sequential summary bit for bit.
  Rng seeder(seed);
  std::vector<std::unique_ptr<ScenarioWorkload>> workloads;
  std::vector<JobHandle> handles;
  workloads.reserve(static_cast<std::size_t>(trials));
  handles.reserve(static_cast<std::size_t>(trials));
  for (int t = 0; t < trials; ++t) {
    workloads.push_back(MakeScenarioWorkload(scenario, seeder.Next()));
    handles.push_back(
        engine.Submit(MakeScenarioJob(scenario, *workloads.back())));
  }
  std::vector<double> values;
  values.reserve(static_cast<std::size_t>(trials));
  for (int t = 0; t < trials; ++t) {
    const StatusOr<FitResult>& fit = handles[static_cast<std::size_t>(t)].Wait();
    HTDP_CHECK(fit.ok()) << " scenario \"" << scenario.solver
                         << "\": " << fit.status().ToString();
    values.push_back(ScenarioMetric(
        scenario, *workloads[static_cast<std::size_t>(t)], *fit));
  }
  return Summarize(values);
}

double BestReferenceRisk(const Loss& loss, const Dataset& data,
                         const Polytope& constraint, const Vector& w_star,
                         int fw_iterations) {
  FrankWolfeOptions fw;
  fw.iterations = fw_iterations;
  const auto nonprivate = MinimizeFrankWolfe(
      loss, data, constraint, Vector(data.dim(), 0.0), fw);
  return std::min(EmpiricalRisk(loss, data, w_star),
                  EmpiricalRisk(loss, data, nonprivate.w));
}

}  // namespace htdp
