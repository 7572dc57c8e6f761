#ifndef HTDP_ROBUST_SHRINKAGE_H_
#define HTDP_ROBUST_SHRINKAGE_H_

#include <algorithm>
#include <cmath>
#include <cstddef>

#include "linalg/matrix.h"
#include "linalg/vector_ops.h"
#include "util/check.h"

namespace htdp {

/// Entrywise shrinkage x~ = sign(x) * min(|x|, k) -- the heavy-tailed
/// truncation principle of Fan, Wang & Zhu (2016) used in step 2 of
/// Algorithms 2 and 3. Unlike the sub-Gaussian setting, the threshold K is a
/// function of (n, epsilon, T) rather than of tail parameters.
inline double Shrink(double value, double threshold) {
  HTDP_DCHECK(threshold > 0.0);
  return std::copysign(std::min(std::abs(value), threshold), value);
}

/// out[j] = Shrink(x[j], threshold) for j in [0, n), inline so the loop
/// vectorizes: the streamed form for a caller that reads each shrunken row
/// once and so needs no shrunken copy of the dataset. x and out must not
/// overlap.
inline void ShrinkRow(const double* HTDP_RESTRICT x, std::size_t n,
                      double threshold, double* HTDP_RESTRICT out) {
  for (std::size_t j = 0; j < n; ++j) out[j] = Shrink(x[j], threshold);
}

/// Shrinks every entry of v in place.
void ShrinkInPlace(double threshold, Vector& v);

/// Shrinks every entry of m in place.
void ShrinkInPlace(double threshold, Matrix& m);

}  // namespace htdp

#endif  // HTDP_ROBUST_SHRINKAGE_H_
