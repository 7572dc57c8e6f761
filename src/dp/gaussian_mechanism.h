#ifndef HTDP_DP_GAUSSIAN_MECHANISM_H_
#define HTDP_DP_GAUSSIAN_MECHANISM_H_

#include "linalg/vector_ops.h"
#include "rng/rng.h"

namespace htdp {

/// The Gaussian Mechanism: releases value + N(0, sigma^2 I) with
/// sigma = l2_sensitivity * sqrt(2 ln(1.25/delta)) / epsilon, which is
/// (epsilon, delta)-DP for epsilon <= 1 (Dwork & Roth, Appendix A). This is
/// the noise the [WXDX20]-style baseline adds to the whole robust-gradient
/// vector -- the poly(d) error route that Remark 1 improves on.
class GaussianMechanism {
 public:
  GaussianMechanism(double l2_sensitivity, double epsilon, double delta);

  /// A mechanism with an externally calibrated noise scale -- the
  /// PrivacyAccountant's zCDP backend computes sigma via rho-composition
  /// (sigma = l2_sensitivity * sqrt(T / (2 rho))) instead of the classic
  /// per-step formula above.
  static GaussianMechanism WithSigma(double sigma);

  /// The calibrated noise standard deviation.
  double sigma() const { return sigma_; }

  /// Privatizes a scalar query value.
  double Privatize(double value, Rng& rng) const;

  /// Adds i.i.d. N(0, sigma^2) noise to every coordinate in place, one
  /// SampleNormal draw per coordinate.
  void PrivatizeInPlace(Vector& value, Rng& rng) const;

 private:
  GaussianMechanism() = default;  // for WithSigma; sigma_ set directly

  double sigma_ = 0.0;
};

}  // namespace htdp

#endif  // HTDP_DP_GAUSSIAN_MECHANISM_H_
