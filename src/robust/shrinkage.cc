#include "robust/shrinkage.h"

#include "util/check.h"

namespace htdp {

void ShrinkInPlace(double threshold, Vector& v) {
  HTDP_CHECK_GT(threshold, 0.0);
  for (double& entry : v) entry = Shrink(entry, threshold);
}

void ShrinkInPlace(double threshold, Matrix& m) {
  HTDP_CHECK_GT(threshold, 0.0);
  for (double& entry : m.data()) entry = Shrink(entry, threshold);
}

}  // namespace htdp
