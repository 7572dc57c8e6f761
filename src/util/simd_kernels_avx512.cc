// AVX-512 instance of the dispatched batch kernels. CMakeLists.txt compiles
// this file with `-march=x86-64 -mavx512f -mavx512dq -ffp-contract=off`
// (the explicit -march resets HTDP_NATIVE flags; DQ supplies the 512-bit
// integer shifts the mantissa-trick transcendentals lower to). The logical
// vector widens to 8 lanes here, so the Dot / DistanceL2 reductions
// reassociate across a different lane partition than the 4-lane tables,
// within the documented tolerances (see util/simd_dispatch.h); the
// SmoothedPhi batch and the rank update are elementwise with no scalar
// tail, so they stay per-element identical.

#include "util/simd.h"
#include "util/simd_dispatch.h"

#if HTDP_SIMD_COMPILED && defined(__x86_64__) && defined(__AVX512F__) && \
    defined(__AVX512DQ__)

#include "util/simd_kernels_impl.h"

namespace htdp::simd_dispatch_internal {

const SimdKernelTable* Avx512Table() { return &simd_kernel_impl::kTable; }

}  // namespace htdp::simd_dispatch_internal

#else  // not an avx512-flagged x86-64 build of this TU

namespace htdp::simd_dispatch_internal {

const SimdKernelTable* Avx512Table() { return nullptr; }

}  // namespace htdp::simd_dispatch_internal

#endif
