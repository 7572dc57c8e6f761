#include "dp/exponential_mechanism.h"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <vector>

#include "obs/trace.h"
#include "rng/distributions.h"
#include "util/check.h"

namespace htdp {

ExponentialMechanism::ExponentialMechanism(double sensitivity, double epsilon)
    : sensitivity_(sensitivity), epsilon_(epsilon) {
  HTDP_CHECK_GT(sensitivity, 0.0);
  HTDP_CHECK_GT(epsilon, 0.0);
}

std::size_t ExponentialMechanism::SelectGumbel(const Vector& scores,
                                               Rng& rng) const {
  HTDP_TRACE_SPAN("dp.select_gumbel");
  HTDP_CHECK(!scores.empty());
  const double beta = epsilon_ / (2.0 * sensitivity_);
  std::size_t best = 0;
  double best_value = -1e300;
  for (std::size_t r = 0; r < scores.size(); ++r) {
    const double value = beta * scores[r] + SampleGumbel(rng);
    if (value > best_value) {
      best_value = value;
      best = r;
    }
  }
  return best;
}

std::size_t ExponentialMechanism::SelectLogSumExp(const Vector& scores,
                                                  Rng& rng) const {
  HTDP_CHECK(!scores.empty());
  const double beta = epsilon_ / (2.0 * sensitivity_);
  double max_logit = -1e300;
  for (double s : scores) max_logit = std::max(max_logit, beta * s);

  std::vector<double> weights(scores.size());
  double total = 0.0;
  for (std::size_t r = 0; r < scores.size(); ++r) {
    weights[r] = std::exp(beta * scores[r] - max_logit);
    total += weights[r];
  }
  const double target = rng.UniformUnit() * total;
  double cumulative = 0.0;
  for (std::size_t r = 0; r < scores.size(); ++r) {
    cumulative += weights[r];
    if (target < cumulative) return r;
  }
  return scores.size() - 1;  // numerical edge: target == total
}

}  // namespace htdp
