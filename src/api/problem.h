#ifndef HTDP_API_PROBLEM_H_
#define HTDP_API_PROBLEM_H_

#include <cstddef>

#include "data/dataset.h"
#include "linalg/vector_ops.h"
#include "losses/loss.h"
#include "optim/polytope.h"

namespace htdp {

/// The optimization problem handed to a Solver: a per-sample loss, a dataset,
/// and the geometry of the feasible set -- either a polytope constraint
/// W = conv(V) (Algorithms 1-2) or an l0 sparsity target s* (Algorithms 3-5).
/// The Problem says WHAT to solve; the SolverSpec says HOW (budget, schedule
/// overrides, observers).
///
/// All pointers are non-owning and must outlive every TryFit() call.
struct Problem {
  /// Per-sample loss. May be null for solvers that fix their own loss
  /// (alg2_private_lasso is squared-loss by construction, alg4_peeling is
  /// loss-free selection).
  const Loss* loss = nullptr;

  /// The dataset D = {(x_i, y_i)}. Required.
  const Dataset* data = nullptr;

  /// Optional sample-count cap: the solver fits on the leading `prefix`
  /// samples of `data` only -- the non-owning equivalent of Prefix(data, n)
  /// for sample-size sweeps, with no per-point deep copy. 0 means the whole
  /// dataset; a value beyond data->size() is a shape-mismatch error.
  std::size_t prefix = 0;

  /// Polytope constraint for the Frank-Wolfe-style solvers; null for the
  /// sparsity-constrained ones.
  const Polytope* constraint = nullptr;

  /// Starting iterate; empty means the origin (which lies in every built-in
  /// constraint set and is s-sparse for every s).
  Vector w0;

  /// The sparsity target s* of the l0-constrained formulations; 0 when the
  /// problem is polytope-constrained.
  std::size_t target_sparsity = 0;

  /// Effective sample count: the prefix cap when set, else the full size.
  std::size_t size() const {
    const std::size_t n = data != nullptr ? data->size() : 0;
    return prefix > 0 && prefix < n ? prefix : n;
  }
  std::size_t dim() const { return data != nullptr ? data->dim() : 0; }

  /// The samples the solver actually fits on: the whole dataset, or its
  /// leading `prefix` rows. Requires data != nullptr.
  DatasetView View() const;

  /// w0 if set, otherwise the origin in dim() dimensions.
  Vector InitialIterate() const;

  /// Convenience constructors for the two problem shapes.
  static Problem ConstrainedErm(const Loss& loss, const Dataset& data,
                                const Polytope& constraint);
  static Problem SparseErm(const Loss& loss, const Dataset& data,
                           std::size_t target_sparsity);
};

}  // namespace htdp

#endif  // HTDP_API_PROBLEM_H_
