#ifndef HTDP_API_FIT_RESULT_H_
#define HTDP_API_FIT_RESULT_H_

#include <cstddef>
#include <functional>
#include <vector>

#include "dp/privacy_ledger.h"
#include "linalg/vector_ops.h"

namespace htdp {

/// The common result every Solver returns: the final iterate, the audit
/// trail of mechanism invocations, the resolved schedule that was actually
/// used, optional per-iteration risk trace, and wall-clock timing.
struct FitResult {
  Vector w;
  PrivacyLedger ledger;

  /// Resolved schedule (auto-solved values included).
  int iterations = 0;
  double scale_used = 0.0;      // Catoni truncation scale s/k, if used
  double shrinkage_used = 0.0;  // entrywise shrinkage threshold K, if used
  std::size_t sparsity_used = 0;  // Peeling sparsity s, if used

  /// Coordinates selected by Peeling-based solvers, in selection order: the
  /// single screening round for alg4, the final iteration's support for the
  /// iterative IHT solvers (alg3/alg5).
  std::vector<std::size_t> selected;

  /// Empirical risk after every iteration when
  /// SolverSpec::record_risk_trace is set (costs one data pass each).
  std::vector<double> risk_trace;

  /// Wall-clock duration of the TryFit() call.
  double seconds = 0.0;
};

/// Snapshot passed to the per-iteration observer. References point into the
/// solver's working state and are only valid during the callback.
struct IterationEvent {
  int iteration = 0;         // 1-based
  int total_iterations = 0;  // resolved T
  const Vector& w;           // iterate after this iteration
  const PrivacyLedger& ledger;  // budget spent so far
};

/// Observer invoked after every iteration of a TryFit() call. Must not mutate
/// solver state; useful for live risk plots, early-stopping research, and
/// budget dashboards.
using IterationObserver = std::function<void(const IterationEvent&)>;

}  // namespace htdp

#endif  // HTDP_API_FIT_RESULT_H_
