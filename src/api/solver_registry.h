#ifndef HTDP_API_SOLVER_REGISTRY_H_
#define HTDP_API_SOLVER_REGISTRY_H_

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "api/solver.h"
#include "util/status.h"

namespace htdp {

/// Canonical registry names of the built-in solvers.
inline constexpr const char* kSolverAlg1DpFw = "alg1_dp_fw";
inline constexpr const char* kSolverAlg2PrivateLasso = "alg2_private_lasso";
inline constexpr const char* kSolverAlg3SparseLinReg = "alg3_sparse_linreg";
inline constexpr const char* kSolverAlg4Peeling = "alg4_peeling";
inline constexpr const char* kSolverAlg5SparseOpt = "alg5_sparse_opt";
inline constexpr const char* kSolverBaselineRobustGd = "baseline_robust_gd";

/// Name -> factory map of Solver implementations. Global() comes pre-loaded
/// with the five paper algorithms plus the [WXDX20] baseline; downstream
/// code may Register() additional solvers (e.g. ablation variants) and every
/// registry-driven harness picks them up with zero further code.
///
/// Registration is expected to happen during start-up, before concurrent
/// use; lookups afterwards are read-only and thread-compatible. Solvers are
/// stateless, so Find() hands out a shared per-registry instance (created
/// once at Register() time) that many threads -- e.g. concurrent Engine
/// jobs -- may use simultaneously.
class SolverRegistry {
 public:
  using Factory = std::function<std::unique_ptr<Solver>()>;

  /// The process-wide registry, with the built-ins pre-registered.
  static SolverRegistry& Global();

  /// Registers a factory (invoked once immediately for the shared Find()
  /// instance). Aborts on a duplicate or empty name, a null factory, or a
  /// factory returning null.
  void Register(const std::string& name, Factory factory);

  bool Contains(const std::string& name) const;

  /// Non-aborting lookup of the shared instance: kUnknownSolver -- with the
  /// registered names in the message -- when `name` is not registered. The
  /// pointer stays valid for the registry's lifetime.
  StatusOr<const Solver*> Find(const std::string& name) const;

  /// Non-aborting fresh instantiation of the named solver.
  StatusOr<std::unique_ptr<Solver>> TryCreate(const std::string& name) const;

  /// All registered names, sorted.
  std::vector<std::string> Names() const;

 private:
  struct Entry {
    Factory factory;
    std::unique_ptr<Solver> shared;  // the Find() instance
  };
  std::map<std::string, Entry> factories_;
};

}  // namespace htdp

#endif  // HTDP_API_SOLVER_REGISTRY_H_
