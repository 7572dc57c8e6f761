#ifndef HTDP_API_API_H_
#define HTDP_API_API_H_

/// The unified htdp public API: describe WHAT to solve with a Problem,
/// HOW with a SolverSpec (PrivacyBudget + schedule overrides + observer),
/// pick WHO by name from the SolverRegistry, and get back a common
/// FitResult with a PrivacyLedger audit trail.
///
///   const Solver* solver =
///       SolverRegistry::Global().Find("alg1_dp_fw").value();
///   Problem problem = Problem::ConstrainedErm(loss, data, ball);
///   SolverSpec spec;
///   spec.budget = PrivacyBudget::Pure(1.0);
///   StatusOr<FitResult> fit = solver->TryFit(problem, spec, rng);
///
/// ## Status taxonomy
///
/// The API is exception-free and abort-free: no user-supplied configuration
/// can crash the process. Fallible entry points return Status /
/// StatusOr<T> (util/status.h) with typed codes -- kInvalidProblem,
/// kBudgetExhausted, kShapeMismatch, kUnknownSolver, plus the Engine
/// outcomes kCancelled and kDeadlineExceeded:
///
///   if (!fit.ok()) {  // e.g. budget-exhausted: epsilon must be > 0
///     log(fit.status().ToString());
///   }
///
/// Research code that wants to stop on misuse writes
/// `solver->TryFit(...).value()`: value() on an error aborts with the
/// carried diagnostic.
///
/// ## Privacy accounting
///
/// One budget type (PrivacyBudget, dp/privacy.h) flows from the spec down
/// to the mechanisms; a pluggable PrivacyAccountant (dp/accountant.h),
/// chosen per fit with SolverSpec::accounting, splits it across the
/// solver's mechanism invocations and composes the FitResult's
/// PrivacyLedger totals. `advanced` (the default) is bit-identical to the
/// historical Lemma-2 arithmetic; `zcdp` buys strictly less noise at the
/// same (epsilon, delta) for sequentially-composed solvers; `basic` is the
/// loose sum rule.
///
/// ## Serving many fits: the Engine
///
/// Engine (api/engine.h) turns the facade into a concurrent job service:
/// Submit(FitJob{...}) -> JobHandle, with per-job seeds (bit-identical to a
/// sequential TryFit), cancellation, wall-clock deadlines and aggregate
/// EngineStats. The harness's scenario sweeps and the benches fan out
/// through it. An Engine configured with a BudgetManager
/// (api/budget_manager.h) additionally enforces shared named-tenant
/// budgets: FitJob::tenant reserves the job's budget at Submit, and
/// over-budget submissions come back as typed kBudgetExhausted before any
/// work runs.

#include "api/budget_manager.h"
#include "api/engine.h"
#include "api/fit_result.h"
#include "api/problem.h"
#include "api/solver.h"
#include "api/solver_registry.h"
#include "api/solver_spec.h"
#include "api/solvers.h"
#include "dp/privacy.h"

#endif  // HTDP_API_API_H_
