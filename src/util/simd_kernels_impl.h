#ifndef HTDP_UTIL_SIMD_KERNELS_IMPL_H_
#define HTDP_UTIL_SIMD_KERNELS_IMPL_H_

// The per-ISA batch kernels behind util/simd_dispatch.h, included ONLY by
// the kernel translation units (util/simd_kernels_{base,avx2,avx512}.cc) so
// each compiles this one source at its own ISA. Everything here lives in
// the ISA-keyed inline namespace (distinct symbols per TU; see the ODR note
// in util/simd.h), and the only functions reached outside it are either
// extern libm calls or the baseline-compiled scalar spill
// (simd_dispatch_internal::SmoothedPhiScalarSpill) -- this TU must never
// instantiate scalar inline code that other TUs also emit.
//
// Dispatch changes WHICH ISA runs these bodies, not WHAT they compute: at
// equal lane count the results are bit-identical, and the SmoothedPhi
// batch and the rank update, which are elementwise with no scalar tail,
// give the same bits per element at any lane count.

#include <cmath>
#include <cstddef>
#include <cstring>

#include "robust/catoni_constants.h"
#include "util/simd.h"
#include "util/simd_dispatch.h"
#include "util/simd_math.h"

#if !HTDP_SIMD_COMPILED
#error "simd_kernels_impl.h requires the vector layer (HTDP_SIMD_COMPILED)"
#endif

namespace htdp {
namespace simd_kernel_impl {
inline namespace HTDP_SIMD_ISA_NS {

using simd::VecD;
using simd::VecI;

constexpr std::size_t kW = static_cast<std::size_t>(simd::kLanes);

/// Vectorized SmoothedPhiClosedForm: the scalar T1..T5 operation sequence of
/// CatoniCorrection evaluated in lanes, with ExpPd / HalfErfcFromExp in
/// place of libm's exp / erfc and the literal divisions by 6 strength-
/// reduced to a multiply (both are within the SmoothedPhiBatchTolerance
/// contract). Only valid where ClosedFormApplies; the caller masks. Always
/// inlined: as a call, the batch loop's hot body runs measurably slower.
[[gnu::always_inline]] inline VecD ClosedFormLanes(VecD a, VecD b) {
  using catoni_internal::kInvSqrt2Pi;
  using catoni_internal::kPhiBound;
  using catoni_internal::kSqrt2;
  const VecD sixth = simd::Set1(1.0 / 6.0);
  const VecD half = simd::Set1(0.5);
  const VecD inv_sqrt2pi = simd::Set1(kInvSqrt2Pi);
  const VecD phi_bound = simd::Set1(kPhiBound);

  const VecD v_minus = (simd::Set1(kSqrt2) - a) / b;
  const VecD v_plus = (simd::Set1(kSqrt2) + a) / b;
  const VecD e_minus = simd::ExpPd(-(half * v_minus * v_minus));
  const VecD e_plus = simd::ExpPd(-(half * v_plus * v_plus));
  const VecD f_minus = simd::HalfErfcFromExp(v_minus, e_minus);
  const VecD f_plus = simd::HalfErfcFromExp(v_plus, e_plus);

  const VecD a_cubed_sixth = a * a * a * sixth;
  const VecD t1 = phi_bound * (f_minus - f_plus);
  const VecD t2 = -((a - a_cubed_sixth) * (f_minus + f_plus));
  const VecD t3 =
      b * inv_sqrt2pi * (simd::Set1(1.0) - half * a * a) * (e_plus - e_minus);
  const VecD t4 = half * a * b * b *
                  (f_plus + f_minus +
                   inv_sqrt2pi * (v_plus * e_plus + v_minus * e_minus));
  const VecD t5 = (b * b * b * sixth) * inv_sqrt2pi *
                  ((simd::Set1(2.0) + v_minus * v_minus) * e_minus -
                   (simd::Set1(2.0) + v_plus * v_plus) * e_plus);
  const VecD correction = t1 + t2 + t3 + t4 + t5;
  const VecD value =
      a * (simd::Set1(1.0) - half * b * b) - a_cubed_sixth + correction;
  return simd::Clamp(value, -phi_bound, phi_bound);
}

/// Phi(a) in lanes: scalar Phi's operation sequence, its +/- sqrt(2)
/// saturation and std::clamp's comparisons, so every lane is bit-identical
/// to the scalar tiny-b branch of SmoothedPhi (NaN included).
inline VecD PhiLanes(VecD a) {
  using catoni_internal::kPhiBound;
  using catoni_internal::kSqrt2;
  const VecD phi_bound = simd::Set1(kPhiBound);
  VecD value = a - a * a * a / simd::Set1(6.0);
  value = simd::Select(a > simd::Set1(kSqrt2), phi_bound, value);
  value = simd::Select(a < simd::Set1(-kSqrt2), -phi_bound, value);
  value = simd::Select(value < -phi_bound, -phi_bound, value);
  return simd::Select(phi_bound < value, phi_bound, value);
}

/// Closed-form lanes of mixed groups, gathered until they fill a vector. A
/// group with one hot lane among tiny-b lanes (a sparse ridge row, say)
/// then costs a fraction of a vector closed form instead of a whole one.
/// A closed-form lane's bits do not depend on the other lanes, so
/// gathering moves no bit.
struct PendingHotLanes {
  double a[kW];
  double b[kW];
  double* out[kW];
  std::size_t count = 0;
};

/// Evaluates the gathered lanes (unused lanes hold the hot stand-in
/// a = b = 1) and writes each to its destination.
[[gnu::noinline]] void FlushHotLanes(PendingHotLanes& pending) {
  if (pending.count == 0) return;
  for (std::size_t l = pending.count; l < kW; ++l) {
    pending.a[l] = pending.b[l] = 1.0;
  }
  const VecD value =
      ClosedFormLanes(simd::LoadU(pending.a), simd::LoadU(pending.b));
  for (std::size_t l = 0; l < pending.count; ++l) *pending.out[l] = value[l];
  pending.count = 0;
}

/// A lane group holding at least one cold lane (`hot` not all set). Tiny-b
/// lanes store Phi(a); anything else that is not hot -- the exact split,
/// and a negative or NaN b, whose scalar check must still fire -- goes to
/// the scalar spill, one lane at a time (the spill is baseline-compiled,
/// see above). Hot lanes join `pending`; their out[l] is written when it
/// is flushed. Out of line: the common all-hot group stays one tight loop
/// body.
[[gnu::noinline]] void SmoothedPhiColdGroup(VecD va, VecD vb, VecI hot,
                                            const double* a, const double* b,
                                            double* out,
                                            PendingHotLanes& pending) {
  using catoni_internal::kTinyB;
  const VecI tiny = (vb >= simd::Set1(0.0)) & (vb < simd::Set1(kTinyB));
  simd::StoreU(out, PhiLanes(va));
  for (std::size_t l = 0; l < kW; ++l) {
    if (hot[l] != 0) {
      pending.a[pending.count] = va[l];
      pending.b[pending.count] = vb[l];
      pending.out[pending.count] = out + l;
      if (++pending.count == kW) FlushHotLanes(pending);
    } else if (tiny[l] == 0) {
      simd_dispatch_internal::SmoothedPhiScalarSpill(a + l, b + l, out + l,
                                                     1);
    }
  }
}

void SmoothedPhiBatchKernel(const double* a, const double* b, double* out,
                            std::size_t n) {
  using catoni_internal::kCancellationLimit;
  using catoni_internal::kTinyB;
  double a_pad[kW];
  double b_pad[kW];
  double out_pad[kW];
  PendingHotLanes pending;
  for (std::size_t j = 0; j < n; j += kW) {
    const std::size_t lanes = n - j < kW ? n - j : kW;
    const double* ga = a + j;
    const double* gb = b + j;
    double* go = out + j;
    if (lanes < kW) [[unlikely]] {
      // The n mod kW tail runs as one padded group: pad lanes hold the hot
      // value a = b = 1 and are never stored.
      for (std::size_t l = 0; l < kW; ++l) a_pad[l] = b_pad[l] = 1.0;
      std::memcpy(a_pad, ga, lanes * sizeof(double));
      std::memcpy(b_pad, gb, lanes * sizeof(double));
      ga = a_pad;
      gb = b_pad;
      go = out_pad;
    }
    const VecD va = simd::LoadU(ga);
    const VecD vb = simd::LoadU(gb);
    // Branch classification with exactly the scalar ClosedFormApplies
    // arithmetic (including the division by 6), so vector and scalar can
    // never pick different branches for the same element.
    const VecD abs_a = simd::Abs(va);
    const VecD cancellation =
        simd::Max(abs_a * abs_a * abs_a / simd::Set1(6.0),
                  simd::Set1(0.5) * abs_a * vb * vb);
    const VecI hot = (vb >= simd::Set1(kTinyB)) &
                     (cancellation <= simd::Set1(kCancellationLimit));
    if (simd::AllTrue(hot)) [[likely]] {
      simd::StoreU(go, ClosedFormLanes(va, vb));
    } else {
      SmoothedPhiColdGroup(va, vb, hot, ga, gb, go, pending);
    }
    if (lanes < kW) [[unlikely]] {
      FlushHotLanes(pending);  // out_pad is copied out next
      std::memcpy(out + j, out_pad, lanes * sizeof(double));
    }
  }
  FlushHotLanes(pending);
}

void SmoothedPhiTransformKernel(const double* xs, std::size_t n, double scale,
                                double sqrt_beta, double* phi) {
  // One stack block of the robust-mean kernels (kSimdBlock in
  // robust/robust_mean.cc); the table contract caps n at 256.
  constexpr std::size_t kBlock = 256;
  double a_buf[kBlock];
  double b_buf[kBlock];
  if (n > kBlock) n = kBlock;
  const VecD v_scale = simd::Set1(scale);
  const VecD v_sqrt_beta = simd::Set1(sqrt_beta);
  std::size_t j = 0;
  // Elementwise derivation (division, abs, division): bit-identical to the
  // scalar `a = x/scale; b = |a|/sqrt_beta` at any lane width.
  for (; j + kW <= n; j += kW) {
    const VecD a = simd::LoadU(xs + j) / v_scale;
    simd::StoreU(a_buf + j, a);
    simd::StoreU(b_buf + j, simd::Abs(a) / v_sqrt_beta);
  }
  for (; j < n; ++j) {
    const double a = xs[j] / scale;
    a_buf[j] = a;
    b_buf[j] = __builtin_fabs(a) / sqrt_beta;
  }
  SmoothedPhiBatchKernel(a_buf, b_buf, phi, n);
}

// Lane-widened reductions: two accumulator vectors to break the add
// dependency chain, lanes summed in index order at the end. Reassociates
// the sum, so results differ from the scalar reference by rounding --
// pinned by the relative-error tests in tests/simd_test.cc.

double DotKernel(const double* a, const double* b, std::size_t n) {
  VecD acc0 = simd::Set1(0.0);
  VecD acc1 = simd::Set1(0.0);
  std::size_t i = 0;
  for (; i + 2 * kW <= n; i += 2 * kW) {
    acc0 = acc0 + simd::LoadU(a + i) * simd::LoadU(b + i);
    acc1 = acc1 + simd::LoadU(a + i + kW) * simd::LoadU(b + i + kW);
  }
  if (i + kW <= n) {
    acc0 = acc0 + simd::LoadU(a + i) * simd::LoadU(b + i);
    i += kW;
  }
  double acc = simd::ReduceAdd(acc0 + acc1);
  for (; i < n; ++i) acc += a[i] * b[i];
  return acc;
}

double DistanceL2Kernel(const double* a, const double* b, std::size_t n) {
  VecD acc0 = simd::Set1(0.0);
  VecD acc1 = simd::Set1(0.0);
  std::size_t i = 0;
  for (; i + 2 * kW <= n; i += 2 * kW) {
    const VecD d0 = simd::LoadU(a + i) - simd::LoadU(b + i);
    const VecD d1 = simd::LoadU(a + i + kW) - simd::LoadU(b + i + kW);
    acc0 = acc0 + d0 * d0;
    acc1 = acc1 + d1 * d1;
  }
  if (i + kW <= n) {
    const VecD d0 = simd::LoadU(a + i) - simd::LoadU(b + i);
    acc0 = acc0 + d0 * d0;
    i += kW;
  }
  double acc = simd::ReduceAdd(acc0 + acc1);
  for (; i < n; ++i) {
    const double diff = a[i] - b[i];
    acc += diff * diff;
  }
  return std::sqrt(acc);
}

// Rank-k update of the upper triangle: one pass over g[j, j..d) per row j,
// each lane summing the block's k products in r order before the add to g.
// No cross-lane reduction, so every lane width gives the scalar loop's bits.
// K > 0 fixes the block height at compile time (kRankUpdateRows, the full
// blocks of alg2's moments pass), so the per-row coefficients stay in
// registers; K == 0 reads it from k (the last, partial block).
template <std::size_t K>
void RankUpdateUpperRows(const double* rows, std::size_t k, std::size_t d,
                         double* g) {
  const std::size_t height = K > 0 ? K : k;
  for (std::size_t j = 0; j < d; ++j) {
    double* gj = g + j * d;
    VecD coef[kRankUpdateRows];
    for (std::size_t r = 0; r < height; ++r) {
      coef[r] = simd::Set1(rows[r * d + j]);
    }
    std::size_t l = j;
    // Four independent lane groups per pass keep the k-long add chains of
    // neighbouring groups in flight together.
    for (; l + 4 * kW <= d; l += 4 * kW) {
      VecD sum0 = coef[0] * simd::LoadU(rows + l);
      VecD sum1 = coef[0] * simd::LoadU(rows + l + kW);
      VecD sum2 = coef[0] * simd::LoadU(rows + l + 2 * kW);
      VecD sum3 = coef[0] * simd::LoadU(rows + l + 3 * kW);
      for (std::size_t r = 1; r < height; ++r) {
        const double* row = rows + r * d + l;
        sum0 = sum0 + coef[r] * simd::LoadU(row);
        sum1 = sum1 + coef[r] * simd::LoadU(row + kW);
        sum2 = sum2 + coef[r] * simd::LoadU(row + 2 * kW);
        sum3 = sum3 + coef[r] * simd::LoadU(row + 3 * kW);
      }
      simd::StoreU(gj + l, simd::LoadU(gj + l) + sum0);
      simd::StoreU(gj + l + kW, simd::LoadU(gj + l + kW) + sum1);
      simd::StoreU(gj + l + 2 * kW, simd::LoadU(gj + l + 2 * kW) + sum2);
      simd::StoreU(gj + l + 3 * kW, simd::LoadU(gj + l + 3 * kW) + sum3);
    }
    for (; l + kW <= d; l += kW) {
      VecD sum = coef[0] * simd::LoadU(rows + l);
      for (std::size_t r = 1; r < height; ++r) {
        sum = sum + coef[r] * simd::LoadU(rows + r * d + l);
      }
      simd::StoreU(gj + l, simd::LoadU(gj + l) + sum);
    }
    for (; l < d; ++l) {
      double sum = rows[j] * rows[l];
      for (std::size_t r = 1; r < height; ++r) {
        sum += rows[r * d + j] * rows[r * d + l];
      }
      gj[l] += sum;
    }
  }
}

void RankUpdateUpperKernel(const double* rows, std::size_t k, std::size_t d,
                           double* g) {
  if (k == kRankUpdateRows) {
    RankUpdateUpperRows<kRankUpdateRows>(rows, k, d, g);
  } else if (k > 0) {
    RankUpdateUpperRows<0>(rows, k, d, g);
  }
}

const SimdKernelTable kTable = {
    simd::kIsaName,          static_cast<int>(kW),
    &SmoothedPhiBatchKernel, &SmoothedPhiTransformKernel,
    &DotKernel,              &DistanceL2Kernel,
    &RankUpdateUpperKernel};

}  // namespace HTDP_SIMD_ISA_NS
}  // namespace simd_kernel_impl
}  // namespace htdp

#endif  // HTDP_UTIL_SIMD_KERNELS_IMPL_H_
