#ifndef HTDP_CORE_ROBUST_GRADIENT_H_
#define HTDP_CORE_ROBUST_GRADIENT_H_

#include <cstddef>
#include <vector>

#include "data/dataset.h"
#include "linalg/vector_ops.h"
#include "losses/loss.h"
#include "robust/robust_mean.h"

namespace htdp {

/// Reusable scratch for RobustGradientEstimator::Estimate: the per-chunk
/// partial accumulators of the deterministic parallel reduction and one
/// per-chunk row buffer (the fused scaled-feature row on the GLM path, the
/// materialized per-sample gradient otherwise). The column blocks of one
/// chunk write disjoint slices of that chunk's two buffers. Buffers grow on first use
/// and are retained, so a fit loop that passes the same workspace every
/// iteration performs no heap allocation after warm-up.
struct RobustGradientWorkspace {
  std::vector<Vector> partials;
  std::vector<Vector> row_buffers;
};

/// The coordinate-wise robust gradient estimator g~(w, D) of Algorithm 1
/// step 4 / Algorithm 5 step 4: the one-dimensional Catoni-style estimator
/// x_hat(s, beta) (Eqs. (2)-(5)) applied to each coordinate of the
/// per-sample gradients { grad l(w, z_i) }.
///
/// Because the multiplicative-noise smoothing is evaluated analytically, the
/// estimator is deterministic; privacy enters only through the downstream
/// mechanism, which relies on the l-infinity sensitivity bound
/// 4 sqrt(2) s / (3 m) exposed by Sensitivity().
class RobustGradientEstimator {
 public:
  /// `scale` is the truncation scale (s in Algorithm 1, k in Algorithm 5);
  /// `beta` the smoothing precision. `simd` selects the evaluation path of
  /// the per-coordinate Catoni kernel (see RobustMeanEstimator and the
  /// HTDP_SIMD contract in util/simd.h); solvers thread SolverSpec::simd
  /// through here so a scalar-reference fit can be forced per job.
  RobustGradientEstimator(double scale, double beta,
                          SimdMode simd = SimdMode::kAuto);

  double scale() const { return estimator_.scale(); }
  double beta() const { return estimator_.beta(); }
  bool simd() const { return estimator_.simd(); }

  /// Computes g~(w, view) into `out` (resized to w.size()). Uses the fused
  /// batched GLM row kernel of `loss` when available. Thread-parallel over
  /// row chunks of up to 512 samples, at most NumWorkerThreads() of them,
  /// whose partial sums are added in chunk order: the output bits depend
  /// only on (view.size(), NumWorkerThreads()) through those row chunks,
  /// never on scheduling. When a GLM fold has fewer chunks than workers and
  /// enough work, each chunk is further split into one column block per
  /// worker, run in parallel. In SIMD mode rows of at most 128 coordinates
  /// (per block) are packed several to one Catoni kernel call. The kernel
  /// is elementwise, so neither a column block nor packing moves a bit: the
  /// output equals one AccumulateContributions call per row, rows added in
  /// order within each chunk. Pass a `workspace` owned by the fit loop to
  /// reuse the reduction buffers across iterations (zero allocations after
  /// warm-up); with the default nullptr a call-local workspace is used.
  void Estimate(const Loss& loss, const DatasetView& view, const Vector& w,
                Vector& out, RobustGradientWorkspace* workspace = nullptr)
      const;

  /// l-infinity sensitivity of Estimate() over m samples when one sample is
  /// replaced: 4 sqrt(2) scale / (3 m).
  double Sensitivity(std::size_t m) const;

 private:
  RobustMeanEstimator estimator_;
};

}  // namespace htdp

#endif  // HTDP_CORE_ROBUST_GRADIENT_H_
