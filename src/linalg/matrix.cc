#include "linalg/matrix.h"

#include <cstddef>

#include "util/check.h"
#include "util/parallel.h"
#include "util/simd_dispatch.h"

namespace htdp {

void Matrix::MatVec(const Vector& x, Vector& out) const {
  HTDP_CHECK_EQ(x.size(), cols_);
  out.assign(rows_, 0.0);
  ParallelFor(rows_, [&](std::size_t begin, std::size_t end) {
    for (std::size_t r = begin; r < end; ++r) {
      out[r] = Dot(Row(r), x.data(), cols_);
    }
  });
}

void Matrix::MatTVec(const Vector& x, Vector& out) const {
  HTDP_CHECK_EQ(x.size(), rows_);
  out.assign(cols_, 0.0);
  // Row-major layout: accumulate row-by-row to keep streaming access. Each
  // row update is an elementwise axpy, so the lane-widened kernel changes
  // no bits (the cross-row accumulation order is unchanged).
  for (std::size_t r = 0; r < rows_; ++r) {
    const double xr = x[r];
    if (xr == 0.0) continue;
    AxpyKernel(xr, Row(r), out.data(), cols_);
  }
}

Matrix Matrix::RowSlice(std::size_t begin, std::size_t end) const {
  HTDP_CHECK_LE(begin, end);
  HTDP_CHECK_LE(end, rows_);
  Matrix out(end - begin, cols_);
  for (std::size_t r = begin; r < end; ++r) {
    const double* src = Row(r);
    double* dst = out.Row(r - begin);
    for (std::size_t c = 0; c < cols_; ++c) dst[c] = src[c];
  }
  return out;
}

void RankUpdateUpper(const double* HTDP_RESTRICT rows, std::size_t k,
                     std::size_t d, double* HTDP_RESTRICT g, bool use_simd) {
  HTDP_CHECK_LE(k, kRankUpdateRows);
  if (k == 0) return;
  if (use_simd) {
    if (const SimdKernelTable* table = ActiveSimdKernels()) {
      table->rank_update_upper(rows, k, d, g);
      return;
    }
  }
  for (std::size_t j = 0; j < d; ++j) {
    double* gj = g + j * d;
    for (std::size_t l = j; l < d; ++l) {
      double sum = rows[j] * rows[l];
      for (std::size_t r = 1; r < k; ++r) {
        sum += rows[r * d + j] * rows[r * d + l];
      }
      gj[l] += sum;
    }
  }
}

}  // namespace htdp
