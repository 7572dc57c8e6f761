#include "api/solver_common.h"

#include <algorithm>
#include <cstdio>
#include <limits>
#include <string>

#include "robust/shrinkage.h"
#include "util/check.h"
#include "util/parallel.h"
#include "util/simd.h"
#include "util/simd_dispatch.h"

namespace htdp {

Status ValidateProblem(const Solver& solver, const Problem& problem,
                       const SolverSpec& spec) {
  if (problem.data == nullptr) {
    return Status::InvalidProblem(solver.name() +
                                  ": Problem.data must be set");
  }
  if (Status s = problem.data->Check(); !s.ok()) {
    return Status::WithCode(s.code(), solver.name() + ": " + s.message());
  }
  if (problem.prefix > problem.data->size()) {
    return Status::ShapeMismatch(
        solver.name() + ": Problem.prefix (" +
        std::to_string(problem.prefix) + ") exceeds data->size() (" +
        std::to_string(problem.data->size()) + ")");
  }
  if (solver.requires_loss() && problem.loss == nullptr) {
    return Status::InvalidProblem(solver.name() +
                                  ": Problem.loss must be set");
  }
  if (solver.requires_constraint() && problem.constraint == nullptr) {
    return Status::InvalidProblem(
        solver.name() + ": Problem.constraint (a Polytope) must be set");
  }
  if (solver.requires_sparsity() && problem.target_sparsity == 0 &&
      spec.sparsity == 0) {
    return Status::InvalidProblem(
        solver.name() +
        ": set Problem.target_sparsity (s*) or SolverSpec.sparsity (s)");
  }
  const std::size_t d = problem.data->dim();
  if (problem.constraint != nullptr && problem.constraint->dim() != d) {
    return Status::ShapeMismatch(
        solver.name() + ": constraint dim (" +
        std::to_string(problem.constraint->dim()) +
        ") must equal data dim (" + std::to_string(d) + ")");
  }
  if (!problem.w0.empty() && problem.w0.size() != d) {
    return Status::ShapeMismatch(
        solver.name() + ": w0 size (" + std::to_string(problem.w0.size()) +
        ") must equal data dim (" + std::to_string(d) + ")");
  }
  if (Status s = spec.budget.Check(); !s.ok()) {
    return Status::WithCode(s.code(), solver.name() + ": " + s.message());
  }
  if (!solver.supports_pure_dp() && !(spec.budget.delta > 0.0)) {
    return Status::BudgetExhausted(
        solver.name() + " satisfies (eps, delta)-DP and needs delta > 0; "
                        "set PrivacyBudget::Approx(epsilon, delta)");
  }
  return Status::Ok();
}

StatusOr<SolverSpec> TryResolveSpec(const Solver& solver,
                                    const Problem& problem,
                                    const SolverSpec& spec) {
  SolverSpec resolved = spec;
  resolved.algorithm = solver.algorithm();
  if (resolved.target_sparsity == 0) {
    resolved.target_sparsity = problem.target_sparsity;
  }
  if (problem.constraint != nullptr && resolved.num_vertices == 0) {
    resolved.num_vertices = problem.constraint->num_vertices();
  }

  if (Status s = resolved.Resolve(problem.size(), problem.dim()); !s.ok()) {
    return s;
  }
  return resolved;
}

StatusOr<FoldedRobustPlan> TryMakeFoldedRobustPlan(
    const DatasetView& data, const SolverSpec& resolved) {
  HTDP_CHECK_GT(resolved.iterations, 0);  // Resolve never yields T < 1
  HTDP_RETURN_IF_ERROR(CheckFoldsFitSamples(resolved.iterations,
                                            data.size()));
  return FoldedRobustPlan{
      RobustGradientEstimator(resolved.scale, resolved.beta, resolved.simd),
      SplitIntoFolds(data, static_cast<std::size_t>(resolved.iterations))};
}

Status CheckPeelingNoiseScale(const Solver& solver,
                              const PeelingOptions& options) {
  const double noise_scale = PeelingNoiseScale(options);
  if (noise_scale >= std::numeric_limits<double>::min() &&
      noise_scale <= kMaxPeelingNoiseScale) {
    return Status::Ok();
  }
  char shown[32];
  std::snprintf(shown, sizeof(shown), "%g", noise_scale);
  return Status::InvalidProblem(
      solver.name() + ": Peeling noise scale " + shown +
      " is outside [DBL_MIN, 1e298]; the shrinkage, scale or step is too "
      "extreme to release");
}

Dataset ShrinkDataset(const DatasetView& view, double threshold) {
  Dataset shrunken;
  shrunken.x = view.data->x.RowSlice(view.begin, view.end);
  shrunken.y.assign(view.data->y.begin() + static_cast<long>(view.begin),
                    view.data->y.begin() + static_cast<long>(view.end));
  ShrinkInPlace(threshold, shrunken.x);
  ShrinkInPlace(threshold, shrunken.y);
  return shrunken;
}

SecondMoments ShrunkenMoments(const DatasetView& view, double threshold,
                              SimdMode simd) {
  HTDP_CHECK_GT(view.size(), 0u);
  const std::size_t n = view.size();
  const std::size_t d = view.dim();
  const bool use_simd = ResolveSimd(simd);
  // EmpiricalGradient's row chunks: the partial layout, and so the bits,
  // follow from (n, worker count) alone.
  const std::size_t chunks = std::max<std::size_t>(
      1, std::min<std::size_t>(static_cast<std::size_t>(NumWorkerThreads()),
                               (n + 511) / 512));
  const std::size_t chunk_size = (n + chunks - 1) / chunks;
  std::vector<Matrix> xx(chunks, Matrix(d, d));
  std::vector<Vector> xy(chunks, Vector(d, 0.0));
  std::vector<double> blocks(chunks * kRankUpdateRows * d);
  ParallelFor(
      chunks,
      [&](std::size_t c_begin, std::size_t c_end) {
        for (std::size_t c = c_begin; c < c_end; ++c) {
          double* block = blocks.data() + c * kRankUpdateRows * d;
          const std::size_t hi = std::min((c + 1) * chunk_size, n);
          for (std::size_t lo = c * chunk_size; lo < hi;
               lo += kRankUpdateRows) {
            const std::size_t k = std::min(kRankUpdateRows, hi - lo);
            for (std::size_t r = 0; r < k; ++r) {
              double* row = block + r * d;
              ShrinkRow(view.Row(lo + r), d, threshold, row);
              AxpyKernel(Shrink(view.Label(lo + r), threshold), row,
                         xy[c].data(), d);
            }
            RankUpdateUpper(block, k, d, xx[c].data().data(), use_simd);
          }
        }
      },
      /*min_parallel=*/2);

  SecondMoments moments{std::move(xx[0]), std::move(xy[0])};
  for (std::size_t c = 1; c < chunks; ++c) {
    for (std::size_t j = 0; j < d; ++j) {
      AxpyKernel(1.0, xx[c].Row(j) + j, moments.xx.Row(j) + j, d - j);
    }
    AxpyKernel(1.0, xy[c].data(), moments.xy.data(), d);
  }
  const double inv_n = 1.0 / static_cast<double>(n);
  for (std::size_t j = 0; j < d; ++j) {
    for (std::size_t l = j; l < d; ++l) {
      const double value = moments.xx(j, l) * inv_n;
      moments.xx(j, l) = value;
      moments.xx(l, j) = value;
    }
    moments.xy[j] *= inv_n;
  }
  return moments;
}

void MomentsGradient(const SecondMoments& moments, const Vector& w,
                     Vector& grad) {
  const std::size_t d = w.size();
  HTDP_CHECK_EQ(moments.xy.size(), d);
  grad.resize(d);
  for (std::size_t j = 0; j < d; ++j) {
    grad[j] = 2.0 * (Dot(moments.xx.Row(j), w.data(), d) - moments.xy[j]);
  }
}

Status CancelledStatus(const Solver& solver) {
  return Status::Cancelled(solver.name() +
                           ": stopped by SolverSpec::should_stop");
}

void NotifyObserver(const SolverSpec& spec, int iteration, int total,
                    const Vector& w, const PrivacyLedger& ledger) {
  if (!spec.observer) return;
  spec.observer(IterationEvent{iteration, total, w, ledger});
}

}  // namespace htdp
