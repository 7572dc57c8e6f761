#ifndef HTDP_BENCH_BENCH_COMMON_H_
#define HTDP_BENCH_BENCH_COMMON_H_

// Shared scenario builders for the figure-regeneration benches. Every bench
// point is a harness Scenario -- solver registry name + workload + budget --
// run through RunScenarioTrial, so the benches contain no per-algorithm
// dispatch: swapping the solver string re-runs any figure against any
// registered Solver. Each trial generates a fresh workload from `seed`,
// fits one estimator, and returns the excess empirical risk of Section 6.2.
// Sample sizes arriving here are already scaled by the bench environment
// (HTDP_BENCH_SCALE).

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/htdp.h"
#include "harness/experiment.h"
#include "harness/scenario.h"
#include "harness/table.h"
#include "util/parallel.h"
#include "util/simd.h"

// Generated into the build tree by cmake/git_rev.cmake on every build of a
// bench target; absent when bench_common.h is compiled outside the bench
// build (e.g. ad-hoc probes against the static library).
#if __has_include("htdp_git_rev.h")
#include "htdp_git_rev.h"
#endif

namespace htdp::bench {

/// Git revision the measured binary was built from, baked in at build time:
/// cmake/git_rev.cmake regenerates htdp_git_rev.h on every build (not just
/// at configure), so incremental rebuilds after new commits cannot record a
/// stale revision, and the value always names the code that was actually
/// compiled (a runtime lookup could name whatever repo the binary happens
/// to run in). "unknown" outside a git checkout.
inline const char* GitRevision() {
#ifdef HTDP_GIT_REV
  return HTDP_GIT_REV;
#else
  return "unknown";
#endif
}

/// One measured bench point of a BENCH_*.json perf-trajectory file.
struct BenchRecord {
  std::string name;          // e.g. "BM_RobustGradient/4096/2048"
  double wall_seconds = 0.0;        // mean wall time of one iteration
  double iterations_per_sec = 0.0;  // 1 / wall_seconds
  double items_per_sec = 0.0;       // samples*dims per second (0 if untracked)
  /// Named auxiliary values tracked alongside the timings (e.g.
  /// BM_AccountantNoiseMultiplier records sigma and the
  /// sigma(advanced)/sigma(zcdp) ratio so the trajectory shows the
  /// accounting payoff per release; the memory-traffic benches record
  /// bytes_per_sec so memory-bound and compute-bound regressions are
  /// distinguishable).
  std::vector<std::pair<std::string, double>> extras;
};

/// The SIMD ISA tag recorded in the trajectory header: the ISA the runtime
/// dispatcher actually selected on this host when the toggle is on, "off"
/// when the run is forced scalar (HTDP_SIMD=off), so A/B rows are
/// distinguishable in the archive.
inline const char* SimdTag() {
  return SimdEnabled() ? SimdInfo().isa : "off";
}

/// Accumulates BenchRecords and writes the machine-readable perf-trajectory
/// schema tracked PR-over-PR:
///   { "bench": <name>, "git_rev": <rev>, "threads": <NumWorkerThreads()>,
///     "hw_cores": <hardware_concurrency>, "simd": <SimdTag()>,
///     "simd_baseline": <compile-time baseline ISA>,
///     "records": [ { "name", "wall_seconds", "iterations_per_sec",
///                    "items_per_sec" }, ... ] }
/// `simd` names the ISA the dispatcher picked at runtime; `simd_baseline`
/// the ISA the binary was compiled for, which everything outside the
/// dispatched kernels runs at. `hw_cores` pins the machine size
/// behind the `threads` worker setting (a 4-thread run on a 2-core box is
/// not comparable to one on a 64-core box). Every bench binary emits
/// BENCH_<suffix>.json next to its table output so CI can archive the
/// numbers alongside the human-readable tables.
class BenchJsonWriter {
 public:
  explicit BenchJsonWriter(std::string bench_name)
      : bench_name_(std::move(bench_name)) {}

  void Add(BenchRecord record) { records_.push_back(std::move(record)); }
  bool empty() const { return records_.empty(); }

  bool WriteFile(const std::string& path) const {
    std::FILE* file = std::fopen(path.c_str(), "w");
    if (file == nullptr) return false;
    std::fprintf(file,
                 "{\n  \"bench\": \"%s\",\n  \"git_rev\": \"%s\",\n"
                 "  \"threads\": %d,\n  \"hw_cores\": %u,\n"
                 "  \"simd\": \"%s\",\n  \"simd_baseline\": \"%s\",\n"
                 "  \"records\": [",
                 Escaped(bench_name_).c_str(), Escaped(GitRevision()).c_str(),
                 NumWorkerThreads(), std::thread::hardware_concurrency(),
                 Escaped(SimdTag()).c_str(),
                 Escaped(SimdInfo().compiled_isa).c_str());
    for (std::size_t i = 0; i < records_.size(); ++i) {
      const BenchRecord& r = records_[i];
      std::fprintf(file,
                   "%s\n    {\"name\": \"%s\", \"wall_seconds\": %.9g, "
                   "\"iterations_per_sec\": %.9g, \"items_per_sec\": %.9g",
                   i == 0 ? "" : ",", Escaped(r.name).c_str(), r.wall_seconds,
                   r.iterations_per_sec, r.items_per_sec);
      for (const auto& [key, value] : r.extras) {
        std::fprintf(file, ", \"%s\": %.9g", Escaped(key).c_str(), value);
      }
      std::fprintf(file, "}");
    }
    std::fprintf(file, "\n  ]\n}\n");
    std::fclose(file);
    return true;
  }

 private:
  static std::string Escaped(const std::string& raw) {
    std::string out;
    out.reserve(raw.size());
    for (const char c : raw) {
      if (c == '"' || c == '\\') out.push_back('\\');
      if (static_cast<unsigned char>(c) >= 0x20) out.push_back(c);
    }
    return out;
  }

  std::string bench_name_;
  std::vector<BenchRecord> records_;
};

/// delta = n^-1.1 (Section 6.2).
inline double PaperDelta(std::size_t n) {
  return std::pow(static_cast<double>(n), -1.1);
}

struct LinearWorkload {
  ScalarDistribution features = ScalarDistribution::Lognormal(0.0, 0.6);
  ScalarDistribution noise = ScalarDistribution::Normal(0.0, 0.1);
};

/// Polytope-constrained linear regression over the unit l1 ball (the
/// Figure 1/5/6 shape): excess risk against the generating w*. Pass
/// estimate_tau = true for the robust-gradient solvers (one O(n d) pass per
/// trial), false for solvers without a tau knob (alg2).
inline Scenario PolytopeLinearScenario(std::string solver,
                                       PrivacyBudget budget, std::size_t n,
                                       std::size_t d,
                                       const LinearWorkload& workload,
                                       bool estimate_tau) {
  Scenario scenario;
  scenario.solver = std::move(solver);
  scenario.model = Scenario::Model::kLinear;
  scenario.n = n;
  scenario.d = d;
  scenario.features = workload.features;
  scenario.noise = workload.noise;
  scenario.spec.budget = budget;
  scenario.spec.accounting = GetBenchEnv().accounting;
  scenario.estimate_tau = estimate_tau;
  return scenario;
}

/// Polytope-constrained logistic regression (the Figure 2 shape). The
/// generating w* is not the ERM under the sign-label model, so the excess is
/// measured against the better of w* and a non-private Frank-Wolfe solution.
inline Scenario PolytopeLogisticScenario(std::string solver,
                                         PrivacyBudget budget, std::size_t n,
                                         std::size_t d,
                                         const ScalarDistribution& features) {
  Scenario scenario;
  scenario.solver = std::move(solver);
  scenario.model = Scenario::Model::kLogistic;
  scenario.n = n;
  scenario.d = d;
  scenario.features = features;
  scenario.noise = ScalarDistribution::None();
  scenario.spec.budget = budget;
  scenario.spec.accounting = GetBenchEnv().accounting;
  scenario.estimate_tau = true;  // alg1 wants tau (Assumption 1)
  scenario.metric = Scenario::Metric::kExcessRiskVsBestReference;
  return scenario;
}

/// Sparse linear regression (the Figure 7-9 shape): x ~ N(0, 5), s*-sparse
/// target scaled into Theorem 7's ||w*|| <= 1/2 regime.
inline Scenario SparseLinRegScenario(std::string solver, PrivacyBudget budget,
                                     std::size_t n, std::size_t d,
                                     std::size_t s_star,
                                     const ScalarDistribution& noise) {
  Scenario scenario;
  scenario.solver = std::move(solver);
  scenario.model = Scenario::Model::kLinear;
  scenario.target = Scenario::Target::kSparse;
  scenario.target_sparsity = s_star;
  scenario.target_scale = 0.5;
  scenario.n = n;
  scenario.d = d;
  scenario.features = ScalarDistribution::Normal(0.0, 5.0);
  scenario.noise = noise;
  scenario.spec.budget = budget;
  scenario.spec.accounting = GetBenchEnv().accounting;
  // eta0 ~ 2/(3 gamma) with gamma = lambda_max(E xx^T) = 25 for N(0,5).
  scenario.spec.step = 2.0 / (3.0 * 25.0);
  return scenario;
}

/// Sparse l2-regularized logistic regression (the Figure 10-11 shape).
inline Scenario SparseLogisticScenario(std::string solver,
                                       PrivacyBudget budget, std::size_t n,
                                       std::size_t d, std::size_t s_star,
                                       const ScalarDistribution& features,
                                       const ScalarDistribution& noise,
                                       double tau) {
  Scenario scenario;
  scenario.solver = std::move(solver);
  scenario.model = Scenario::Model::kLogistic;
  scenario.target = Scenario::Target::kSparse;
  scenario.target_sparsity = s_star;
  scenario.n = n;
  scenario.d = d;
  scenario.features = features;
  scenario.noise = noise;
  scenario.ridge = 0.01;
  scenario.spec.budget = budget;
  scenario.spec.accounting = GetBenchEnv().accounting;
  scenario.spec.tau = tau;
  // eta ~ 2/(3 gamma_r) with gamma_r ~ tau/4 + ridge for the logistic GLM.
  scenario.spec.step = 2.0 / (3.0 * (tau / 4.0 + 0.01));
  return scenario;
}

/// Single-trial runners for the workloads the figures sweep. Each builds a
/// Scenario and dispatches through the registry; the ablations reuse them
/// so a protocol change cannot diverge between a figure and its ablation.

/// Figure 1/3 shape: Algorithm 1 by name, pure eps-DP, linear workload.
inline double Alg1LinearTrial(std::size_t n, std::size_t d, double epsilon,
                              const LinearWorkload& workload,
                              std::uint64_t seed) {
  return RunScenarioTrial(
      PolytopeLinearScenario(kSolverAlg1DpFw, PrivacyBudget::Pure(epsilon),
                             n, d, workload, /*estimate_tau=*/true),
      seed);
}

/// Figure 2/4 shape: Algorithm 1 by name on the logistic workload, measured
/// against the best-of(w*, Frank-Wolfe) reference.
inline double Alg1LogisticTrial(std::size_t n, std::size_t d, double epsilon,
                                const ScalarDistribution& features,
                                std::uint64_t seed) {
  return RunScenarioTrial(
      PolytopeLogisticScenario(kSolverAlg1DpFw, PrivacyBudget::Pure(epsilon),
                               n, d, features),
      seed);
}

/// Figure 5/6 shape: Algorithm 2 by name under the paper's
/// (epsilon, n^-1.1)-DP budget on the linear workload.
inline double Alg2Trial(std::size_t n, std::size_t d, double epsilon,
                        const LinearWorkload& workload, std::uint64_t seed) {
  return RunScenarioTrial(
      PolytopeLinearScenario(kSolverAlg2PrivateLasso,
                             PrivacyBudget::Approx(epsilon, PaperDelta(n)),
                             n, d, workload,
                             /*estimate_tau=*/false),  // alg2 has no tau knob
      seed);
}

/// Non-private Frank-Wolfe reference for the private-vs-non-private panels.
inline double NonPrivateTrial(std::size_t n, std::size_t d, bool logistic,
                              const LinearWorkload& workload,
                              std::uint64_t seed) {
  Rng rng(seed);
  SyntheticConfig config{n, d, workload.features, workload.noise};
  const Vector w_star = MakeL1BallTarget(d, rng);
  const L1Ball ball(d, 1.0);
  FrankWolfeOptions options;
  options.iterations = 100;
  if (logistic) {
    const Dataset data = GenerateLogistic(config, w_star, rng);
    const LogisticLoss loss;
    const auto result =
        MinimizeFrankWolfe(loss, data, ball, Vector(d, 0.0), options);
    return EmpiricalRisk(loss, data, result.w) -
           BestReferenceRisk(loss, data, ball, w_star,
                             /*fw_iterations=*/60);
  }
  const Dataset data = GenerateLinear(config, w_star, rng);
  const SquaredLoss loss;
  const auto result =
      MinimizeFrankWolfe(loss, data, ball, Vector(d, 0.0), options);
  return ExcessEmpiricalRisk(loss, data, result.w, w_star);
}

/// Formats "mean +- stdev" compactly enough for one table column.
inline std::string MeanStd(const Summary& summary) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.3g+-%.2g", summary.mean,
                summary.stdev);
  return std::string(buffer);
}

/// Shared three-panel layout of Figures 7-9 (sparse linear regression with
/// x ~ N(0,5) and a configurable heavy-tailed noise), run against any
/// registered solver (the paper uses alg3_sparse_linreg):
///   (a) error vs epsilon at n = 5*10^4, s* = 20
///   (b) error vs n at epsilon = 1, s* = 20
///   (c) error vs s* at epsilon = 1, n = 5*10^4
inline void RunSparseLinRegFigure(const std::string& solver,
                                  const ScalarDistribution& noise,
                                  const BenchEnv& raw_env) {
  // Below ~40% of the paper's n the Peeling noise saturates the error (the
  // l2 projection caps the iterate) and every curve flattens; keep the
  // default run above that so the paper's trends stay visible.
  BenchEnv env = raw_env;
  env.scale = std::max(env.scale, 0.4);
  const std::vector<std::size_t> dims = {200, 400, 800};

  {
    const std::size_t n = ScaledN(50000, env);
    const std::size_t s_star = 20;
    PrintSection("(a) excess risk vs epsilon  (n = " + std::to_string(n) +
                 ", s* = 20)");
    TablePrinter table({"epsilon", "d=200", "d=400", "d=800"});
    table.PrintHeader();
    for (const double epsilon : {0.5, 1.0, 2.0, 4.0}) {
      std::vector<std::string> row = {TablePrinter::Cell(epsilon)};
      for (const std::size_t d : dims) {
        const Scenario scenario = SparseLinRegScenario(
            solver, PrivacyBudget::Approx(epsilon, PaperDelta(n)), n, d,
            s_star, noise);
        const Summary summary = RunTrials(
            env.trials, env.seed + d, [&](std::uint64_t seed) {
              return RunScenarioTrial(scenario, seed);
            });
        row.push_back(MeanStd(summary));
      }
      table.PrintRow(row);
    }
  }

  {
    const std::size_t s_star = 20;
    PrintSection("(b) excess risk vs n  (epsilon = 1, s* = 20)");
    TablePrinter table({"n", "d=200", "d=400", "d=800"});
    table.PrintHeader();
    for (const std::size_t paper_n : {20000u, 50000u, 200000u}) {
      const std::size_t n = ScaledN(paper_n, env);
      std::vector<std::string> row = {TablePrinter::Cell(n)};
      for (const std::size_t d : dims) {
        const Scenario scenario = SparseLinRegScenario(
            solver, PrivacyBudget::Approx(1.0, PaperDelta(n)), n, d, s_star,
            noise);
        const Summary summary = RunTrials(
            env.trials, env.seed + paper_n + d, [&](std::uint64_t seed) {
              return RunScenarioTrial(scenario, seed);
            });
        row.push_back(MeanStd(summary));
      }
      table.PrintRow(row);
    }
  }

  {
    const std::size_t n = ScaledN(50000, env);
    PrintSection("(c) excess risk vs s*  (epsilon = 1, n = " +
                 std::to_string(n) + ")");
    TablePrinter table({"s*", "d=200", "d=400", "d=800"});
    table.PrintHeader();
    for (const std::size_t s_star : {5u, 10u, 20u, 40u}) {
      std::vector<std::string> row = {TablePrinter::Cell(s_star)};
      for (const std::size_t d : dims) {
        const Scenario scenario = SparseLinRegScenario(
            solver, PrivacyBudget::Approx(1.0, PaperDelta(n)), n, d, s_star,
            noise);
        const Summary summary = RunTrials(
            env.trials, env.seed + s_star * 31 + d,
            [&](std::uint64_t seed) {
              return RunScenarioTrial(scenario, seed);
            });
        row.push_back(MeanStd(summary));
      }
      table.PrintRow(row);
    }
  }
}

/// Shared three-panel layout of Figures 10-11 (sparse l2-regularized
/// logistic regression), run against any registered solver (the paper uses
/// alg5_sparse_opt):
///   (a) error vs epsilon at n = 8000, s* = 20
///   (b) error vs n at epsilon = 1, s* = 20
///   (c) error vs s* at epsilon = 1, n = 8000
inline void RunSparseLogisticFigure(const std::string& solver,
                                    const ScalarDistribution& features,
                                    const ScalarDistribution& noise,
                                    double tau, const BenchEnv& env) {
  const std::vector<std::size_t> dims = {200, 400, 800};

  {
    const std::size_t n = ScaledN(8000, env);
    const std::size_t s_star = 20;
    PrintSection("(a) excess risk vs epsilon  (n = " + std::to_string(n) +
                 ", s* = 20)");
    TablePrinter table({"epsilon", "d=200", "d=400", "d=800"});
    table.PrintHeader();
    for (const double epsilon : {0.5, 1.0, 2.0, 4.0}) {
      std::vector<std::string> row = {TablePrinter::Cell(epsilon)};
      for (const std::size_t d : dims) {
        const Scenario scenario = SparseLogisticScenario(
            solver, PrivacyBudget::Approx(epsilon, PaperDelta(n)), n, d,
            s_star, features, noise, tau);
        const Summary summary = RunTrials(
            env.trials, env.seed + d, [&](std::uint64_t seed) {
              return RunScenarioTrial(scenario, seed);
            });
        row.push_back(MeanStd(summary));
      }
      table.PrintRow(row);
    }
  }

  {
    const std::size_t s_star = 20;
    PrintSection("(b) excess risk vs n  (epsilon = 1, s* = 20)");
    TablePrinter table({"n", "d=200", "d=400", "d=800"});
    table.PrintHeader();
    for (const std::size_t paper_n : {8000u, 24000u, 64000u}) {
      const std::size_t n = ScaledN(paper_n, env);
      std::vector<std::string> row = {TablePrinter::Cell(n)};
      for (const std::size_t d : dims) {
        const Scenario scenario = SparseLogisticScenario(
            solver, PrivacyBudget::Approx(1.0, PaperDelta(n)), n, d, s_star,
            features, noise, tau);
        const Summary summary = RunTrials(
            env.trials, env.seed + paper_n + d, [&](std::uint64_t seed) {
              return RunScenarioTrial(scenario, seed);
            });
        row.push_back(MeanStd(summary));
      }
      table.PrintRow(row);
    }
  }

  {
    const std::size_t n = ScaledN(8000, env);
    PrintSection("(c) excess risk vs s*  (epsilon = 1, n = " +
                 std::to_string(n) + ")");
    TablePrinter table({"s*", "d=200", "d=400", "d=800"});
    table.PrintHeader();
    for (const std::size_t s_star : {5u, 10u, 20u, 40u}) {
      std::vector<std::string> row = {TablePrinter::Cell(s_star)};
      for (const std::size_t d : dims) {
        const Scenario scenario = SparseLogisticScenario(
            solver, PrivacyBudget::Approx(1.0, PaperDelta(n)), n, d, s_star,
            features, noise, tau);
        const Summary summary = RunTrials(
            env.trials, env.seed + s_star * 31 + d,
            [&](std::uint64_t seed) {
              return RunScenarioTrial(scenario, seed);
            });
        row.push_back(MeanStd(summary));
      }
      table.PrintRow(row);
    }
  }
}

/// Prints the standard bench banner.
inline void PrintBanner(const char* figure, const char* description,
                        const BenchEnv& env) {
  std::printf("==============================================================\n");
  std::printf("%s -- %s\n", figure, description);
  std::printf("trials=%d scale=%.2f seed=%llu "
              "(HTDP_BENCH_TRIALS / HTDP_BENCH_SCALE / HTDP_BENCH_SEED)\n",
              env.trials, env.scale,
              static_cast<unsigned long long>(env.seed));
  std::printf("==============================================================\n");
}

}  // namespace htdp::bench

#endif  // HTDP_BENCH_BENCH_COMMON_H_
