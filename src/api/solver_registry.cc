#include "api/solver_registry.h"

#include <sstream>
#include <utility>

#include "api/solvers.h"
#include "util/check.h"

namespace htdp {

SolverRegistry& SolverRegistry::Global() {
  static SolverRegistry* registry = [] {
    auto* r = new SolverRegistry();
    r->Register(kSolverAlg1DpFw, CreateAlg1DpFwSolver);
    r->Register(kSolverAlg2PrivateLasso, CreateAlg2PrivateLassoSolver);
    r->Register(kSolverAlg3SparseLinReg, CreateAlg3SparseLinRegSolver);
    r->Register(kSolverAlg4Peeling, CreateAlg4PeelingSolver);
    r->Register(kSolverAlg5SparseOpt, CreateAlg5SparseOptSolver);
    r->Register(kSolverBaselineRobustGd, CreateBaselineRobustGdSolver);
    return r;
  }();
  return *registry;
}

void SolverRegistry::Register(const std::string& name, Factory factory) {
  HTDP_CHECK(!name.empty()) << "solver name must be non-empty";
  HTDP_CHECK(factory != nullptr) << "solver factory must be non-null";
  Entry entry;
  entry.shared = factory();
  HTDP_CHECK(entry.shared != nullptr)
      << "factory for \"" << name << "\" returned null";
  entry.factory = std::move(factory);
  const bool inserted =
      factories_.emplace(name, std::move(entry)).second;
  HTDP_CHECK(inserted) << "duplicate solver name: " << name;
}

bool SolverRegistry::Contains(const std::string& name) const {
  return factories_.find(name) != factories_.end();
}

namespace {

Status UnknownSolverStatus(const std::string& name,
                           const std::vector<std::string>& known) {
  std::ostringstream message;
  message << "unknown solver \"" << name << "\"; registered:";
  for (const std::string& key : known) message << " " << key;
  return Status::UnknownSolver(message.str());
}

}  // namespace

StatusOr<const Solver*> SolverRegistry::Find(const std::string& name) const {
  const auto it = factories_.find(name);
  if (it == factories_.end()) return UnknownSolverStatus(name, Names());
  return static_cast<const Solver*>(it->second.shared.get());
}

StatusOr<std::unique_ptr<Solver>> SolverRegistry::TryCreate(
    const std::string& name) const {
  const auto it = factories_.find(name);
  if (it == factories_.end()) return UnknownSolverStatus(name, Names());
  std::unique_ptr<Solver> solver = it->second.factory();
  HTDP_CHECK(solver != nullptr) << "factory for \"" << name
                                << "\" returned null";
  return solver;
}

std::vector<std::string> SolverRegistry::Names() const {
  std::vector<std::string> names;
  names.reserve(factories_.size());
  for (const auto& [name, unused] : factories_) names.push_back(name);
  return names;  // std::map iterates in sorted order
}

}  // namespace htdp
