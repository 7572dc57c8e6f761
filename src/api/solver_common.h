#ifndef HTDP_API_SOLVER_COMMON_H_
#define HTDP_API_SOLVER_COMMON_H_

#include <cstddef>
#include <vector>

#include "api/problem.h"
#include "api/solver.h"
#include "api/solver_spec.h"
#include "core/peeling.h"
#include "core/robust_gradient.h"
#include "data/dataset.h"
#include "linalg/matrix.h"
#include "util/simd.h"
#include "util/status.h"

namespace htdp {

/// Shared plumbing hoisted out of the per-algorithm implementations: spec
/// resolution against a problem, the disjoint-fold / robust-gradient setup
/// of Algorithms 1, 5 and the baseline, and the entrywise data shrinkage of
/// Algorithms 2-4. Everything here is non-aborting on user-supplied
/// configuration -- the TryFit contract -- and returns typed Statuses.

/// Reusable per-fit scratch shared by the solver implementations: the
/// iteration buffers live here, sized on first use and retained across
/// iterations. Each Fit call owns one instance for its whole loop. With it
/// the warm iterations of alg1, alg2 (on the second moments) and alg3 are
/// allocation-free (pinned by tests/alloc_test.cc); alg2's streamed
/// fallback still allocates EmpiricalGradient's per-chunk partials.
struct SolverWorkspace {
  RobustGradientWorkspace gradient;  // robust-gradient reduction scratch
  Vector robust_grad;                // g~(w, fold)
  Vector scores;                     // exponential-mechanism vertex scores
  Vector w_half;                     // pre-Peeling half step (IHT solvers)
  Vector row;                        // one shrunken sample (alg3 streaming)
  PeelingResult peeled;              // Peeling release (IHT solvers)
};

/// Non-aborting precondition sweep every TryFit runs before touching the
/// problem's pointers: data present and well-shaped (kShapeMismatch), the
/// solver's declared requirements satisfied -- loss, constraint, sparsity
/// target (kInvalidProblem) -- w0/constraint dimensions consistent
/// (kShapeMismatch), and a fundable budget incl. the delta > 0 requirement
/// of the approximate-DP solvers (kBudgetExhausted).
Status ValidateProblem(const Solver& solver, const Problem& problem,
                       const SolverSpec& spec);

/// Fills the spec's resolution inputs (algorithm id, target sparsity,
/// vertex count) from the problem and runs SolverSpec::Resolve against the
/// problem's effective sample range. Returns the resolved spec, or the
/// resolve error (typed: budget vs. configuration). Assumes ValidateProblem
/// already passed.
StatusOr<SolverSpec> TryResolveSpec(const Solver& solver,
                                    const Problem& problem,
                                    const SolverSpec& spec);

/// The fold-split robust-gradient plan shared by the splitting-based
/// algorithms: one disjoint contiguous fold per iteration, one deterministic
/// Catoni estimator at the resolved truncation scale. Errors with
/// kInvalidProblem when the (possibly pinned) iteration count exceeds the
/// sample count.
struct FoldedRobustPlan {
  RobustGradientEstimator estimator;
  std::vector<DatasetView> folds;
};
StatusOr<FoldedRobustPlan> TryMakeFoldedRobustPlan(const DatasetView& data,
                                                   const SolverSpec& resolved);

/// Up-front check of one Peeling release (alg3, alg5), run before the first
/// mechanism fires: kInvalidProblem unless PeelingNoiseScale(options) is a
/// normal double no larger than kMaxPeelingNoiseScale. Extreme but finite
/// knobs otherwise overflow it (alg3's K^2 at shrinkage 1e200) or push it
/// subnormal (alg5 at a pinned Catoni scale of 1e-320), and Peel() would
/// find no finite score to select.
Status CheckPeelingNoiseScale(const Solver& solver,
                              const PeelingOptions& options);

/// Entrywise shrinkage x~ = sign(x) min(|x|, K) of features and labels
/// (step 2 of Algorithms 2 and 3), copying only the view's rows so prefix
/// fits shrink exactly the samples they train on. Copy shrunken data only
/// when it is read more than once (alg2 outside UseShrunkenMoments reads it
/// every iteration); a solver that reads each row once (alg3's disjoint
/// folds, alg2's moments pass) streams it through ShrinkRow instead.
Dataset ShrinkDataset(const DatasetView& view, double threshold);

/// The second moments of the entrywise-shrunken data: xx = (1/n) sum_i
/// x~_i x~_i^T (d x d, symmetric) and xy = (1/n) sum_i y~_i x~_i. They fix
/// the squared-loss gradient on the shrunken data at every w (see
/// MomentsGradient).
struct SecondMoments {
  Matrix xx;
  Vector xy;
};

/// One pass over the raw view: each row is shrunk (ShrinkRow, labels with
/// Shrink) into a block of kRankUpdateRows rows, which feeds xy and the
/// upper triangle of xx through the dispatched rank-k update (the scalar
/// loop when `simd` resolves off). Rows are summed in the row chunks of
/// EmpiricalGradient -- min(NumWorkerThreads(), ceil(n/512)) of them, one
/// partial each, partials added in chunk order -- so the bits depend only
/// on (n, d, worker count). xx is then mirrored and both are scaled by
/// 1/n once. Allocates chunks * d^2 doubles.
SecondMoments ShrunkenMoments(const DatasetView& view, double threshold,
                              SimdMode simd = SimdMode::kAuto);

/// grad = 2 (xx w - xy): the exact squared-loss gradient on the shrunken
/// data in O(d^2), through the dispatched Dot. Equal in exact arithmetic to
/// EmpiricalGradient(SquaredLoss) over the shrunken copy; the floating-point
/// sums are reassociated.
void MomentsGradient(const SecondMoments& moments, const Vector& w,
                     Vector& grad);

/// Largest d/T for which alg2 runs on the second moments. The moments cost
/// n d^2 / 2 multiply-adds once; the streamed gradient costs 2 T n d per
/// fit and is bound by memory bandwidth, so the break-even is a ratio d/T.
/// Measured on a 4-vCPU AVX-512 Xeon (2 MiB L2 per core), alg2 fit medians
/// streamed -> moments at 4 threads: 15000x400 (d/T 8.5) 264 -> 64 ms,
/// 3000x300 (12) 17.2 -> 11.5 ms, 2000x300 (14.3) 10.3 -> 10.1 ms,
/// 2000x400 (19) 11.8 -> 12.7 ms, 10000x800 (20) 273 -> 197 ms. The
/// break-even is near 14 when the data fits in cache (near 11 at one
/// thread) and above 20 when it comes from DRAM.
inline constexpr std::size_t kMomentsMaxDimPerIteration = 12;

/// True when alg2 computes its gradients from ShrunkenMoments rather than
/// from a shrunken copy: d <= n keeps xx no larger than the copy it
/// replaces, and d <= kMomentsMaxDimPerIteration * T keeps the one pass
/// cheaper than T streamed ones.
inline bool UseShrunkenMoments(std::size_t n, std::size_t d, int iterations) {
  return d <= n && d <= kMomentsMaxDimPerIteration *
                            static_cast<std::size_t>(iterations);
}

/// True when the spec's cooperative-stop hook requests termination; the
/// solvers poll this at the top of every iteration and return kCancelled.
inline bool StopRequested(const SolverSpec& spec) {
  return spec.should_stop && spec.should_stop();
}

/// The kCancelled status a solver returns when StopRequested fires.
Status CancelledStatus(const Solver& solver);

/// Invokes the spec's observer, if any, with a post-iteration snapshot.
void NotifyObserver(const SolverSpec& spec, int iteration, int total,
                    const Vector& w, const PrivacyLedger& ledger);

}  // namespace htdp

#endif  // HTDP_API_SOLVER_COMMON_H_
