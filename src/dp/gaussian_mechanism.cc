#include "dp/gaussian_mechanism.h"

#include <cmath>

#include "obs/trace.h"
#include "rng/distributions.h"
#include "util/check.h"

namespace htdp {

GaussianMechanism::GaussianMechanism(double l2_sensitivity, double epsilon,
                                     double delta) {
  HTDP_CHECK_GT(l2_sensitivity, 0.0);
  HTDP_CHECK_GT(epsilon, 0.0);
  HTDP_CHECK(delta > 0.0 && delta < 1.0) << "delta=" << delta;
  sigma_ = l2_sensitivity * std::sqrt(2.0 * std::log(1.25 / delta)) / epsilon;
}

GaussianMechanism GaussianMechanism::WithSigma(double sigma) {
  HTDP_CHECK_GT(sigma, 0.0);
  GaussianMechanism mechanism;
  mechanism.sigma_ = sigma;
  return mechanism;
}

double GaussianMechanism::Privatize(double value, Rng& rng) const {
  return value + SampleNormal(rng, 0.0, sigma_);
}

void GaussianMechanism::PrivatizeInPlace(Vector& value, Rng& rng) const {
  HTDP_TRACE_SPAN("dp.privatize");
  for (double& v : value) v += SampleNormal(rng, 0.0, sigma_);
}

}  // namespace htdp
