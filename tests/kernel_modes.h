#ifndef HTDP_TESTS_KERNEL_MODES_H_
#define HTDP_TESTS_KERNEL_MODES_H_

#include "gtest/gtest.h"
#include "util/simd.h"
#include "util/simd_dispatch.h"

namespace htdp {

/// Runs `check` once per available SIMD table (pinned with
/// ScopedSimdIsaOverride, SIMD forced on) and once with SIMD off.
template <typename Check>
void ForEachKernelMode(Check&& check) {
  for (const char* isa : {"avx512f", "avx2", "baseline"}) {
    if (!SimdIsaAvailable(isa)) continue;
    ScopedSimdIsaOverride pin(isa);
    SCOPED_TRACE(isa);
    check(SimdMode::kOn);
  }
  SCOPED_TRACE("simd off");
  check(SimdMode::kOff);
}

}  // namespace htdp

#endif  // HTDP_TESTS_KERNEL_MODES_H_
