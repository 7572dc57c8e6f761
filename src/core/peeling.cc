#include "core/peeling.h"

#include <cmath>
#include <cstddef>
#include <vector>

#include "rng/distributions.h"
#include "util/check.h"

namespace htdp {

double PeelingNoiseScale(const PeelingOptions& options) {
  return 2.0 * options.linf_sensitivity *
         std::sqrt(3.0 * static_cast<double>(options.sparsity) *
                   std::log(1.0 / options.delta)) /
         options.epsilon;
}

PeelingResult Peel(const Vector& v, const PeelingOptions& options, Rng& rng,
                   PrivacyLedger* ledger, int fold) {
  PeelingResult result;
  PeelInto(v, options, rng, &result, ledger, fold);
  return result;
}

void PeelInto(const Vector& v, const PeelingOptions& options, Rng& rng,
              PeelingResult* result, PrivacyLedger* ledger, int fold) {
  HTDP_CHECK_GT(options.sparsity, 0u);
  HTDP_CHECK_LE(options.sparsity, v.size());
  HTDP_CHECK_GT(options.epsilon, 0.0);
  HTDP_CHECK(options.delta > 0.0 && options.delta < 1.0)
      << "delta=" << options.delta;
  HTDP_CHECK_GT(options.linf_sensitivity, 0.0);

  const std::size_t d = v.size();
  const std::size_t s = options.sparsity;
  const double noise_scale = PeelingNoiseScale(options);

  result->noise_scale = noise_scale;
  result->selected.clear();
  result->selected.reserve(s);
  // Until the release below, a non-zero entry of `value` marks a taken
  // coordinate; every taken entry is then overwritten and the rest stay 0.
  Vector& value = result->value;
  value.assign(d, 0.0);
  for (std::size_t round = 0; round < s; ++round) {
    // Fresh noise on every coordinate each round, exactly as in the
    // pseudocode (w_i ~ Lap(noise_scale)^d).
    std::size_t best = d;
    double best_value = -1e300;
    for (std::size_t j = 0; j < d; ++j) {
      const double noisy = std::abs(v[j]) + SampleLaplace(rng, noise_scale);
      if (value[j] == 0.0 && noisy > best_value) {
        best_value = noisy;
        best = j;
      }
    }
    HTDP_CHECK_LT(best, d);
    value[best] = 1.0;
    result->selected.push_back(best);
  }

  for (std::size_t j : result->selected) {
    value[j] = v[j] + SampleLaplace(rng, noise_scale);
  }

  if (ledger != nullptr) {
    ledger->Record({"laplace-peeling", options.epsilon, options.delta,
                    options.linf_sensitivity, fold});
  }
}

}  // namespace htdp
