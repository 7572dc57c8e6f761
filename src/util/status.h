#ifndef HTDP_UTIL_STATUS_H_
#define HTDP_UTIL_STATUS_H_

#include <optional>
#include <string>
#include <utility>

#include "util/check.h"

namespace htdp {

/// The error taxonomy of the exception-free htdp library. Every failure a
/// caller can trigger with user-supplied configuration maps onto one of
/// these codes, so services can branch on the class of error (retry,
/// reject, re-route) without parsing messages:
///
///   kInvalidProblem    -- the Problem/SolverSpec combination is malformed
///                         for the chosen solver: missing loss, constraint
///                         or sparsity target, degenerate schedule knobs.
///   kBudgetExhausted   -- the privacy budget cannot fund the request:
///                         epsilon <= 0, delta outside [0, 1), or a budget
///                         too small for the dataset (n * epsilon < 1).
///   kShapeMismatch     -- tensor geometry disagrees: x/y sample counts,
///                         w0 vs. data dimension, constraint vs. data
///                         dimension, prefix beyond the dataset.
///   kUnknownSolver     -- a registry lookup for an unregistered name.
///   kCancelled         -- the fit was cooperatively cancelled through
///                         SolverSpec::should_stop (Engine job cancel).
///   kDeadlineExceeded  -- an Engine job missed its wall-clock deadline.
///   kUnavailable       -- the service is momentarily overloaded (queue cap,
///                         per-tenant inflight cap, connection cap) and the
///                         request was shed WITHOUT running. Unlike every
///                         other code this one is RETRYABLE by contract: the
///                         request spent no privacy budget and an identical
///                         resubmission is safe (fits are deterministic at a
///                         fixed seed, so a retry is idempotent).
enum class StatusCode {
  kOk = 0,
  kInvalidProblem,
  kBudgetExhausted,
  kShapeMismatch,
  kUnknownSolver,
  kCancelled,
  kDeadlineExceeded,
  kUnavailable,
};

/// Stable lower-case name of a code, e.g. "invalid-problem".
inline const char* StatusCodeName(StatusCode code) {
  switch (code) {
    case StatusCode::kOk:
      return "ok";
    case StatusCode::kInvalidProblem:
      return "invalid-problem";
    case StatusCode::kBudgetExhausted:
      return "budget-exhausted";
    case StatusCode::kShapeMismatch:
      return "shape-mismatch";
    case StatusCode::kUnknownSolver:
      return "unknown-solver";
    case StatusCode::kCancelled:
      return "cancelled";
    case StatusCode::kDeadlineExceeded:
      return "deadline-exceeded";
    case StatusCode::kUnavailable:
      return "unavailable";
  }
  return "unknown";
}

/// True for the codes whose contract makes an identical resubmission safe
/// and sensible: nothing ran, no budget was spent, and the condition is
/// transient. Clients branch on this (net::Client retry loop) instead of
/// hard-coding code lists.
inline bool IsRetryable(StatusCode code) {
  return code == StatusCode::kUnavailable;
}

/// Lightweight error carrier for the exception-free htdp library. Functions
/// that can fail on user-provided configuration (rather than on violated
/// internal invariants, which HTDP_CHECK-abort) return a Status so callers
/// can surface the problem instead of crashing.
class Status {
 public:
  Status() = default;

  static Status Ok() { return Status(); }

  static Status InvalidProblem(std::string message) {
    return Status(StatusCode::kInvalidProblem, std::move(message));
  }
  static Status BudgetExhausted(std::string message) {
    return Status(StatusCode::kBudgetExhausted, std::move(message));
  }
  static Status ShapeMismatch(std::string message) {
    return Status(StatusCode::kShapeMismatch, std::move(message));
  }
  static Status UnknownSolver(std::string message) {
    return Status(StatusCode::kUnknownSolver, std::move(message));
  }
  static Status Cancelled(std::string message) {
    return Status(StatusCode::kCancelled, std::move(message));
  }
  static Status DeadlineExceeded(std::string message) {
    return Status(StatusCode::kDeadlineExceeded, std::move(message));
  }
  static Status Unavailable(std::string message) {
    return Status(StatusCode::kUnavailable, std::move(message));
  }

  /// An error with an explicit code -- for re-wrapping a propagated error
  /// with caller context while preserving its class. `code` must not be
  /// kOk.
  static Status WithCode(StatusCode code, std::string message) {
    HTDP_CHECK(code != StatusCode::kOk)
        << "Status::WithCode requires an error code";
    return Status(code, std::move(message));
  }

  bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  const std::string& message() const { return message_; }

  /// "invalid-problem: set Problem.loss" -- the code name plus the message.
  std::string ToString() const {
    if (ok()) return "ok";
    return std::string(StatusCodeName(code_)) + ": " + message_;
  }

 private:
  Status(StatusCode code, std::string message)
      : code_(code), message_(std::move(message)) {}

  StatusCode code_ = StatusCode::kOk;
  std::string message_;
};

/// A Status or a value of type T: the return type of every non-aborting
/// fallible operation in the public API (Solver::TryFit,
/// SolverRegistry::Find, Engine job results). Construct implicitly from a
/// non-ok Status or from a T; `value()` on an error aborts with the carried
/// diagnostic, so `TryFit(...).value()` is the spelling for callers that
/// want to stop on misuse.
template <typename T>
class StatusOr {
 public:
  /// From an error. Aborts if `status` is Ok (an ok StatusOr must carry a
  /// value).
  StatusOr(Status status) : status_(std::move(status)) {  // NOLINT(runtime/explicit)
    HTDP_CHECK(!status_.ok())
        << "StatusOr constructed from an Ok status without a value";
  }

  StatusOr(T value)  // NOLINT(runtime/explicit)
      : value_(std::move(value)) {}

  bool ok() const { return value_.has_value(); }

  /// Ok() when a value is present, the carried error otherwise.
  const Status& status() const { return status_; }

  /// The value; aborts with the carried diagnostic when !ok().
  const T& value() const& {
    HTDP_CHECK(ok()) << status_.ToString();
    return *value_;
  }
  T& value() & {
    HTDP_CHECK(ok()) << status_.ToString();
    return *value_;
  }
  T&& value() && {
    HTDP_CHECK(ok()) << status_.ToString();
    return *std::move(value_);
  }

  const T& operator*() const& { return value(); }
  T& operator*() & { return value(); }
  T&& operator*() && { return std::move(*this).value(); }
  const T* operator->() const { return &value(); }
  T* operator->() { return &value(); }

 private:
  Status status_;  // Ok() iff value_ holds a value
  std::optional<T> value_;
};

/// Early-returns a non-ok Status from the enclosing function:
///   HTDP_RETURN_IF_ERROR(spec.Resolve(n, d));
#define HTDP_RETURN_IF_ERROR(expr)                  \
  do {                                              \
    ::htdp::Status htdp_return_if_error_s = (expr); \
    if (!htdp_return_if_error_s.ok()) return htdp_return_if_error_s; \
  } while (false)

#define HTDP_STATUS_CONCAT_IMPL_(a, b) a##b
#define HTDP_STATUS_CONCAT_(a, b) HTDP_STATUS_CONCAT_IMPL_(a, b)

/// Evaluates a StatusOr<T> expression; early-returns its error, otherwise
/// binds the moved-out value to `lhs` (a declaration or assignable lvalue):
///   HTDP_ASSIGN_OR_RETURN(const SolverSpec resolved,
///                         TryResolveSpec(*this, problem, spec));
#define HTDP_ASSIGN_OR_RETURN(lhs, expr)                              \
  auto HTDP_STATUS_CONCAT_(htdp_statusor_, __LINE__) = (expr);        \
  if (!HTDP_STATUS_CONCAT_(htdp_statusor_, __LINE__).ok()) {          \
    return HTDP_STATUS_CONCAT_(htdp_statusor_, __LINE__).status();    \
  }                                                                   \
  lhs = std::move(HTDP_STATUS_CONCAT_(htdp_statusor_, __LINE__)).value()

}  // namespace htdp

#endif  // HTDP_UTIL_STATUS_H_
