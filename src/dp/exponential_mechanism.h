#ifndef HTDP_DP_EXPONENTIAL_MECHANISM_H_
#define HTDP_DP_EXPONENTIAL_MECHANISM_H_

#include <cstddef>

#include "linalg/vector_ops.h"
#include "rng/rng.h"

namespace htdp {

/// The Exponential Mechanism (Definition 3): selects candidate r from a
/// finite range with probability proportional to exp(epsilon * u(D, r) /
/// (2 * Delta_u)), which preserves epsilon-DP when Delta_u bounds the score
/// sensitivity.
///
/// Two equivalent samplers are provided:
///  - SelectGumbel: argmax_r { epsilon * u_r / (2 Delta) + Gumbel(0,1) } --
///    numerically stable, O(|R|), single pass, allocation-free; the sampler
///    the algorithms use.
///  - SelectLogSumExp: direct categorical sampling through an
///    exp-normalize (log-sum-exp) loop -- kept as the slow cross-check
///    reference for SelectGumbel in tests.
class ExponentialMechanism {
 public:
  /// `sensitivity` is Delta_u = max_r max_{D~D'} |u(D,r) - u(D',r)|.
  ExponentialMechanism(double sensitivity, double epsilon);

  /// Selects an index into `scores` (the u(D, r) values) via the Gumbel-max
  /// trick.
  std::size_t SelectGumbel(const Vector& scores, Rng& rng) const;

  /// Selects an index into `scores` by direct inverse-CDF sampling of the
  /// categorical distribution with logits epsilon * u_r / (2 Delta).
  std::size_t SelectLogSumExp(const Vector& scores, Rng& rng) const;

  double sensitivity() const { return sensitivity_; }
  double epsilon() const { return epsilon_; }

 private:
  double sensitivity_;
  double epsilon_;
};

}  // namespace htdp

#endif  // HTDP_DP_EXPONENTIAL_MECHANISM_H_
