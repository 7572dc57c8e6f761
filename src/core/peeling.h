#ifndef HTDP_CORE_PEELING_H_
#define HTDP_CORE_PEELING_H_

#include <cstddef>
#include <vector>

#include "dp/privacy_ledger.h"
#include "linalg/vector_ops.h"
#include "rng/rng.h"

namespace htdp {

/// Algorithm 4 ("Peeling", Cai, Wang & Zhang 2019): differentially private
/// selection of the s largest-magnitude coordinates of a data-dependent
/// vector v, followed by a noisy release of the selected sub-vector.
///
/// Each of the s rounds adds fresh Lap(2 lambda sqrt(3 s log(1/delta)) /
/// epsilon) noise to every |v_j| and appends the noisy argmax among unpicked
/// indices; the released value is v_S plus Laplace noise of the same scale
/// on S. When `linf_sensitivity` (lambda) bounds ||v(D) - v(D')||_inf over
/// neighboring datasets the procedure is (epsilon, delta)-DP (Lemma 10).
struct PeelingOptions {
  std::size_t sparsity = 1;   // s
  double epsilon = 1.0;
  double delta = 1e-5;
  double linf_sensitivity = 0.0;  // lambda; must be > 0
};

struct PeelingResult {
  /// v_S + noise on S, zero elsewhere.
  Vector value;
  /// The s selected indices, in selection order.
  std::vector<std::size_t> selected;
  /// The per-coordinate Laplace scale that was used.
  double noise_scale = 0.0;
};

/// The per-coordinate Laplace scale Peel() draws with:
/// 2 lambda sqrt(3 s log(1/delta)) / epsilon.
double PeelingNoiseScale(const PeelingOptions& options);

/// Largest noise scale at which Peel()'s selection cannot come up empty: a
/// Laplace draw is at most ~37 scales in magnitude (the log of a
/// double-precision uniform), so below this scale every draw stays under
/// 4e299 and the noisy score of any non-NaN coordinate beats the
/// selection's -1e300 sentinel.
inline constexpr double kMaxPeelingNoiseScale = 1e298;

/// Runs Peeling on `v`. Records one (epsilon, delta) entry in `ledger` when
/// provided; `fold` tags the ledger entry (see PrivacyLedger).
PeelingResult Peel(const Vector& v, const PeelingOptions& options, Rng& rng,
                   PrivacyLedger* ledger = nullptr, int fold = -1);

/// Peel() into `*result`, reusing its buffers: the same draws and the same
/// bits, and no heap allocation once the buffers have grown, so a fit loop
/// that keeps one PeelingResult allocates nothing per iteration.
void PeelInto(const Vector& v, const PeelingOptions& options, Rng& rng,
              PeelingResult* result, PrivacyLedger* ledger = nullptr,
              int fold = -1);

}  // namespace htdp

#endif  // HTDP_CORE_PEELING_H_
