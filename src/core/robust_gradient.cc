#include "core/robust_gradient.h"

#include <algorithm>
#include <cstddef>
#include <vector>

#include "obs/trace.h"
#include "util/check.h"
#include "util/parallel.h"

namespace htdp {

namespace {

// Below these sizes a fold is not worth splitting by columns: each extra
// block recomputes the row's O(d) gradient scale, and the per-task work
// must dwarf the pool dispatch. Blocks need no alignment: the Catoni
// kernel is elementwise (an element's value depends only on itself and
// the dispatched table), so any split of a row gives the full row's bits,
// and equal widths balance the workers (d = 100 on 4 workers: 25 x 4).
constexpr std::size_t kColumnMinElements = 32768;
constexpr std::size_t kColumnMinDim = 64;

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
  // split into one column block per worker. Every coordinate still sums
  // the same rows in the same order, so the blocks never move a bit.
  std::size_t block_width = d;
  if (glm && chunks < workers && m * d >= kColumnMinElements &&
      d >= kColumnMinDim) {
    block_width = (d + workers - 1) / workers;
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
          // In SIMD mode, as many short rows as fit the kernel's block (when
          // that is at least two) are packed into one stack block, so a
          // single kernel call covers them. Each coordinate still adds its
          // rows in row order, so packing moves no bit. The scalar
          // reference (SimdMode::kOff) keeps one call per row.
          constexpr std::size_t kPack = RobustMeanEstimator::kBlockElements;
          double pack[kPack];
          const std::size_t pack_rows =
              estimator_.simd() && 2 * width <= kPack ? kPack / width : 1;
          for (std::size_t i = lo; i < hi;) {
            const std::size_t rows = std::min(pack_rows, hi - i);
            for (std::size_t r = 0; r < rows; ++r, ++i) {
              if (glm) {
                double scale = 0.0;
                HTDP_CHECK(loss.GradientAsScaledFeature(view.Row(i),
                                                        view.Label(i), w,
                                                        &scale));
                // Fused row kernel: materialize this block of the
                // per-sample gradient row scale * x_i + ridge * w.
                double* dst =
                    pack_rows > 1 ? pack + r * width : row_buf.data() + j0;
                ScaledSumKernel(scale, view.Row(i) + j0, ridge,
                                w.data() + j0, dst, width);
              } else {
                loss.Gradient(view.Row(i), view.Label(i), w, row_buf);
                if (pack_rows > 1) {
                  std::copy_n(row_buf.data(), width, pack + r * width);
                }
              }
            }
            estimator_.AccumulateRows(
                pack_rows > 1 ? pack : row_buf.data() + j0, rows, width, acc);
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
