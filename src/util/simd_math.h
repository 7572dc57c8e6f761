#ifndef HTDP_UTIL_SIMD_MATH_H_
#define HTDP_UTIL_SIMD_MATH_H_

#include "util/simd.h"

/// Vectorized double-precision transcendentals for the hot kernels, built
/// on the simd.h wrapper: monomial minimax/Chebyshev cores evaluated by an
/// Estrin tree (log-depth dependency chains, unlike Horner/Clenshaw whose
/// serial recurrences dominate wall time at these degrees) behind standard
/// range reductions. All integer <-> float plumbing uses in-register bit
/// tricks -- no lane-wise conversions, which lower to scalar code on
/// pre-AVX-512 x86. Accuracy is pinned by tests/simd_test.cc against libm:
///
///   ExpPd    max observed 1.1 ULP on [-708, 709]; documented bound 4 ULP.
///            Flushes to +0 below -708 (no gradual underflow; 2^k scaling
///            stays in the normal range) and saturates to +inf above 709.
///   ErfcxPd  scaled complementary error function erfc(y) * exp(y^2) for
///            y >= 0: max observed 1e-15 relative; documented bound 4e-15.
///
/// The composite HalfErfcFromExp -- the Catoni closed form's Phi(-v) =
/// 0.5 * erfc(v / sqrt(2)) evaluated as 0.5 * erfcx(|z|) * exp(-z^2) so the
/// exp factor is shared with the correction terms -- carries max observed
/// absolute error ~2e-16 (documented 1e-15) against 0.5 * erfc(z); its
/// RELATIVE error is only bounded where the result is a normal double (the
/// true value underflows past |z| ~ 27, where the composite returns exact
/// 0 or 1).
///
/// Coefficients were generated by Chebyshev interpolation against long
/// double libm references and converted to the monomial basis in long
/// double; the fit/validation harness lives in the PR that introduced this
/// file.

#if HTDP_SIMD_COMPILED

namespace htdp::simd {
// Same ISA-keyed inline namespace as the wrapper in util/simd.h: the
// per-ISA kernel TUs of the runtime dispatcher include this header under
// -mavx2 / -mavx512f, and every inline definition they instantiate must
// carry ISA-distinct symbols (see the ODR note in util/simd.h).
inline namespace HTDP_SIMD_ISA_NS {

namespace math_internal {

inline constexpr double kLog2E = 1.4426950408889634074;
// ln(2) split so `k * kLn2Hi` is exact for |k| < 2^20 (fdlibm split).
inline constexpr double kLn2Hi = 6.93147180369123816490e-01;
inline constexpr double kLn2Lo = 1.90821492927058770002e-10;
inline constexpr double kSqrtHalf = 0.70710678118654752440;
inline constexpr double kInvSqrtPi = 0.5641895835477562869;  // 1/sqrt(pi)
// 2^52; adding it to a small non-negative integer-valued double exposes
// that integer in the low mantissa bits (the shift trick behind
// RoundNearest, reused for exponent construction below).
inline constexpr double kMantissaShift = 4503599627370496.0;

/// x^H by binary squaring (the intermediate powers are shared across the
/// Estrin recursion by common-subexpression elimination).
template <std::size_t H>
inline VecD PowN(VecD x) {
  if constexpr (H == 1) {
    return x;
  } else if constexpr (H % 2 == 0) {
    const VecD half = PowN<H / 2>(x);
    return half * half;
  } else {
    return x * PowN<H - 1>(x);
  }
}

template <std::size_t N>
inline VecD PolyEvalImpl(const double* c, VecD x) {
  if constexpr (N == 1) {
    return Set1(c[0]);
  } else if constexpr (N == 2) {
    return Set1(c[0]) + Set1(c[1]) * x;
  } else if constexpr (N == 3) {
    return Set1(c[0]) + (Set1(c[1]) + Set1(c[2]) * x) * x;
  } else {
    constexpr std::size_t kHalf = N / 2;
    return PolyEvalImpl<kHalf>(c, x) +
           PowN<kHalf>(x) * PolyEvalImpl<N - kHalf>(c + kHalf, x);
  }
}

/// Estrin-tree evaluation of sum_k c[k] * x^k (ascending coefficients).
template <std::size_t N>
inline VecD PolyEval(const double (&c)[N], VecD x) {
  return PolyEvalImpl<N>(c, x);
}

// exp(r) Taylor coefficients 1 .. 1/13!, ascending. Truncation error
// ~6e-18 relative on |r| <= ln(2)/2.
inline constexpr double kExpPoly[] = {
    1.0,          1.0,           0.5,           1.0 / 6.0,
    1.0 / 24.0,   1.0 / 120.0,   1.0 / 720.0,   1.0 / 5040.0,
    1.0 / 40320.0, 1.0 / 362880.0, 1.0 / 3628800.0, 1.0 / 39916800.0,
    1.0 / 479001600.0, 1.0 / 6227020800.0};

// erfcx(y) on y in [0, 2]: monomial in u = y - 1, ascending, degree 22
// (max 3.2e-16 relative over the segment).
inline constexpr double kErfcxNear[] = {
    4.27583576155807004515e-01,  -2.73212014783898655620e-01,
    1.54371561371908431985e-01,  -7.92269689413185482051e-02,
    3.75722962152902869729e-02,  -1.66618690906300689414e-02,
    6.97014237498659456960e-03,  -2.76906477324745351276e-03,
    1.05026939935686094751e-03,  -3.81954545314454390421e-04,
    1.33662977533886236384e-04,  -4.51438486493282514943e-05,
    1.47531619466567676122e-05,  -4.67568127119392638317e-06,
    1.43970652896980951766e-06,  -4.31134885705274506988e-07,
    1.25960079738510320681e-07,  -3.62708493577943242948e-08,
    1.00879311860501769367e-08,  -2.49739521816240006101e-09,
    6.74157386919946672975e-10,  -2.77287140109009392880e-10,
    6.97258675917628747627e-11};

// sqrt(pi) * y * erfcx(y) on y > 2: monomial in t = 8/y^2 - 1, ascending,
// degree 21 (max 9.3e-16 relative over the segment).
inline constexpr double kErfcxFar[] = {
    9.46609531654242883532e-01,  -4.61810190610629347360e-02,
    5.79796715697036201875e-03,  -1.06768695701878710196e-03,
    2.46635748096803196159e-04,  -6.65170935363127274825e-05,
    2.01175288061054898595e-05,  -6.65226025191564565794e-06,
    2.36424817100107502325e-06,  -8.91943662880183664085e-07,
    3.52819595409397718728e-07,  -1.46056780222049053080e-07,
    6.60975027741176032454e-08,  -2.98167606110394894435e-08,
    7.69781303346726211381e-09,  -3.08003901171683868296e-09,
    8.61907014446863038073e-09,  -4.71582296445273062618e-09,
    -2.90953330115619544109e-09, 1.70964818060135505863e-09,
    1.32043903084360698064e-09,  -7.43537756617032838116e-10};

/// 2^k for integral-valued k in [-1022, 1023], entirely in-register: the
/// mantissa-shift trick deposits k + 1023 into the low bits, which a left
/// shift moves into the exponent field (the shift drops the trick constant's
/// own exponent bits off the top).
inline VecD Exp2Integral(VecD k) {
  const VecD shifted = k + Set1(kMantissaShift + 1023.0);
  return (VecD)((VecI)shifted << Set1I(52));
}

}  // namespace math_internal

/// Vector exp. See the accuracy/domain contract at the top of this file.
inline VecD ExpPd(VecD x) {
  using namespace math_internal;
  // Clamp the working value so the 2^k scale stays in the normal-exponent
  // range; the true underflow/overflow lanes are patched at the end.
  const VecI underflow = x < Set1(-708.0);
  const VecI overflow = x > Set1(709.0);
  const VecD xc = Clamp(x, Set1(-708.0), Set1(709.0));
  const VecD k = RoundNearest(xc * Set1(kLog2E));
  const VecD r = (xc - k * Set1(kLn2Hi)) - k * Set1(kLn2Lo);
  VecD result = PolyEval(kExpPoly, r) * Exp2Integral(k);
  result = Select(underflow, Set1(0.0), result);
  result = Select(overflow, Set1(__builtin_huge_val()), result);
  return result;
}

/// Vector erfcx(y) = erfc(y) * exp(y^2) for y >= 0 (callers handle signs).
/// Accepts arbitrarily large y (erfcx ~ 1/(y*sqrt(pi))). Uniform lane
/// groups evaluate only their own segment; mixed groups evaluate both and
/// blend.
inline VecD ErfcxPd(VecD y) {
  using namespace math_internal;
  const VecI near_mask = y <= Set1(2.0);
  if (AllTrue(near_mask)) {
    return PolyEval(kErfcxNear, y - Set1(1.0));
  }
  // Far segment: sqrt(pi)*y*erfcx(y) as a polynomial in t = 8/y^2 - 1. One
  // division serves both t and the final 1/y factor; the max() guard keeps
  // masked-out near lanes finite.
  const VecD yg = Max(y, Set1(2.0));
  const VecD inv_y = Set1(1.0) / yg;
  const VecD t_far = Set1(8.0) * (inv_y * inv_y) - Set1(1.0);
  const VecD far_val = PolyEval(kErfcxFar, t_far) * Set1(kInvSqrtPi) * inv_y;
  if (NoneTrue(near_mask)) return far_val;
  const VecD near_val =
      PolyEval(kErfcxNear, Min(y, Set1(2.0)) - Set1(1.0));
  return Select(near_mask, near_val, far_val);
}

/// The Catoni closed form's normal-CDF factor: given v and the already
/// computed e = exp(-v^2/2) (which the correction terms reuse), returns
/// 0.5 * erfc(v / sqrt(2)) via the erfcx identity. Max observed absolute
/// error ~2e-16 vs libm (documented bound 1e-15); returns exact 0 / 1 where
/// 0.5 * erfc underflows (|v| beyond ~38).
inline VecD HalfErfcFromExp(VecD v, VecD e) {
  using namespace math_internal;
  const VecD z = Abs(v) * Set1(kSqrtHalf);
  const VecD half = Set1(0.5) * ErfcxPd(z) * e;
  return Select(v < Set1(0.0), Set1(1.0) - half, half);
}

}  // namespace HTDP_SIMD_ISA_NS
}  // namespace htdp::simd

#endif  // HTDP_SIMD_COMPILED

#endif  // HTDP_UTIL_SIMD_MATH_H_
