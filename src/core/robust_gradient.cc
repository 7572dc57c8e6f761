#include "core/robust_gradient.h"

#include <algorithm>
#include <cstddef>
#include <vector>

#include "obs/trace.h"
#include "util/check.h"
#include "util/parallel.h"

namespace htdp {

namespace {

// Column blocks start on multiples of this many doubles: the AVX-512 lane
// count, a multiple of AVX2's 4 and a divisor of the robust-mean kernel's
// 256-element stack block. Every coordinate then falls in the same lane
// group -- and so takes the same closed-form/spill branch -- as in a
// full-row call, which is what keeps the column path bit-identical.
constexpr std::size_t kLaneBlock = 8;

// Below these sizes a fold is not worth splitting by columns: each extra
// block recomputes the row's O(d) gradient scale, and the per-task work
// must dwarf the pool dispatch.
constexpr std::size_t kColumnMinElements = 32768;
constexpr std::size_t kColumnMinDim = 8 * kLaneBlock;

}  // namespace

RobustGradientEstimator::RobustGradientEstimator(double scale, double beta,
                                                 SimdMode simd)
    : estimator_(scale, beta, simd) {}

void RobustGradientEstimator::Estimate(const Loss& loss,
                                       const DatasetView& view,
                                       const Vector& w, Vector& out,
                                       RobustGradientWorkspace* workspace)
    const {
  HTDP_TRACE_SPAN("robust.estimate");
  HTDP_CHECK_GT(view.size(), 0u);
  HTDP_CHECK_EQ(view.dim(), w.size());
  const std::size_t d = w.size();
  const std::size_t m = view.size();

  double probe = 0.0;
  const bool glm =
      loss.GradientAsScaledFeature(view.Row(0), view.Label(0), w, &probe);
  const double ridge = loss.RidgeCoefficient();

  // Per-chunk accumulators keep the parallel reduction race-free and the
  // summation order deterministic for a fixed thread configuration.
  const std::size_t workers = static_cast<std::size_t>(NumWorkerThreads());
  const std::size_t chunks =
      std::max<std::size_t>(1, std::min<std::size_t>(workers, (m + 511) / 512));
  const std::size_t chunk_size = (m + chunks - 1) / chunks;

  // A fold with fewer row chunks than workers (alg1's ~500-row folds) would
  // leave cores idle, so on the GLM path each chunk's coordinates are also
  // split into lane-aligned column blocks. Every coordinate still sums the
  // same rows in the same order, so the blocks never move a bit.
  std::size_t block_width = d;
  if (glm && chunks < workers && m * d >= kColumnMinElements &&
      d >= kColumnMinDim) {
    const std::size_t per_worker = (d + workers - 1) / workers;
    block_width = (per_worker + kLaneBlock - 1) / kLaneBlock * kLaneBlock;
  }
  const std::size_t blocks = (d + block_width - 1) / block_width;

  RobustGradientWorkspace local;
  RobustGradientWorkspace& ws = workspace != nullptr ? *workspace : local;
  if (ws.partials.size() < chunks) ws.partials.resize(chunks);
  if (ws.row_buffers.size() < chunks) ws.row_buffers.resize(chunks);
  for (std::size_t c = 0; c < chunks; ++c) {
    ws.partials[c].assign(d, 0.0);
    if (ws.row_buffers[c].size() < d) ws.row_buffers[c].resize(d);
  }

  // Each (chunk, column block) task is an expensive unit (hundreds of
  // samples x a slice of erfc/exp-heavy math), so dispatch to the pool from
  // two tasks up. Tasks of one chunk write disjoint slices of its buffers.
  ParallelFor(
      chunks * blocks,
      [&](std::size_t t_begin, std::size_t t_end) {
        for (std::size_t t = t_begin; t < t_end; ++t) {
          const std::size_t c = t / blocks;
          const std::size_t j0 = (t % blocks) * block_width;
          const std::size_t width = std::min(block_width, d - j0);
          double* acc = ws.partials[c].data() + j0;
          Vector& row_buf = ws.row_buffers[c];
          const std::size_t lo = c * chunk_size;
          const std::size_t hi = std::min(lo + chunk_size, m);
          for (std::size_t i = lo; i < hi; ++i) {
            if (glm) {
              double scale = 0.0;
              HTDP_CHECK(loss.GradientAsScaledFeature(view.Row(i),
                                                      view.Label(i), w,
                                                      &scale));
              // Fused row kernel: materialize this block of the per-sample
              // gradient row scale * x_i + ridge * w, then push it through
              // the batched Catoni kernel.
              ScaledSumKernel(scale, view.Row(i) + j0, ridge, w.data() + j0,
                              row_buf.data() + j0, width);
            } else {
              loss.Gradient(view.Row(i), view.Label(i), w, row_buf);
            }
            estimator_.AccumulateContributions(row_buf.data() + j0, width,
                                               acc);
          }
        }
      },
      /*min_parallel=*/2);

  out.assign(d, 0.0);
  for (std::size_t c = 0; c < chunks; ++c) Axpy(1.0, ws.partials[c], out);
  Scale(1.0 / static_cast<double>(m), out);
}

double RobustGradientEstimator::Sensitivity(std::size_t m) const {
  return estimator_.Sensitivity(m);
}

}  // namespace htdp
