#ifndef HTDP_UTIL_SIMD_DISPATCH_H_
#define HTDP_UTIL_SIMD_DISPATCH_H_

#include <cstddef>

/// Runtime SIMD ISA dispatch for the batch kernels.
///
/// The hot-loop entry points -- the Catoni SmoothedPhi batch + transform,
/// the Dot / DistanceL2 reductions and the rank-k update behind alg2's
/// second moments -- are compiled once per ISA into dedicated translation
/// units (util/simd_kernels_base.cc at the binary's baseline,
/// plus util/simd_kernels_avx2.cc and util/simd_kernels_avx512.cc on
/// x86-64, built with per-file -mavx2 / -mavx512f flags; see
/// CMakeLists.txt). Each TU exports one `SimdKernelTable` of function
/// pointers; a one-time CPUID probe (`__builtin_cpu_supports`) picks the
/// best table the machine can run, so a single shipped binary reaches
/// AVX-512 or AVX2 without an HTDP_NATIVE rebuild. NEON stays compile-time
/// (the base table is the only one on non-x86).
///
/// Numerical contract, pinned by tests/simd_test.cc (SimdDispatchTest):
///  - the avx2 table is compiled without FMA contraction
///    (-ffp-contract=off), and every kernel is either elementwise or
///    reduces in the same 4-lane order as the sse2 baseline, so its
///    results are BIT-IDENTICAL to the baseline table's;
///  - the rank-k update is elementwise in its output and contraction-free,
///    so it is bit-identical across all tables;
///  - the avx512f table runs 8 lanes: the Dot / DistanceL2 reductions
///    reassociate across a different lane partition, within the documented
///    bounds (tests/simd_test.cc tolerances); the SmoothedPhi batch is
///    elementwise, so lane width never moves one of its elements, and its
///    closed-form elements are promised only SmoothedPhiBatchTolerance of
///    the scalar reference (docs/engine.md has the per-kernel table);
///  - the HTDP_SIMD=off scalar reference never reaches any table and stays
///    the bit-identity golden path.
///
/// Selection order: the `HTDP_SIMD_ISA` environment variable, when it names
/// an available table ("avx512f", "avx2", or "baseline" / the compiled
/// baseline's name), pins the choice; otherwise the probe picks the best
/// supported ISA. SetSimdIsa / ScopedSimdIsaOverride re-pin at runtime
/// (tests use this to compare tables on one machine).

namespace htdp {

/// Block height the rank-k update is unrolled for: callers that stream
/// rows through it (alg2's moments pass) fill blocks of this many rows.
inline constexpr std::size_t kRankUpdateRows = 8;

/// One ISA's batch kernels. All pointers are non-null in every exported
/// table.
struct SimdKernelTable {
  const char* isa;  // "avx512f", "avx2", or the compiled baseline's name
  int lanes;        // doubles per vector in this table's kernels

  /// out[j] = SmoothedPhi(a[j], b[j]), elementwise: every group (the tail
  /// padded with hot lanes that are never stored) runs the vector closed
  /// form and a bit-exact vector Phi for tiny-b lanes; only exact-split
  /// lanes go to SmoothedPhiScalarSpill, one at a time. Same contract as
  /// SmoothedPhiBatch(..., use_simd=true) in robust/catoni.h.
  void (*smoothed_phi_batch)(const double* a, const double* b, double* out,
                             std::size_t n);

  /// Fused Catoni transform: derives a = x/scale, b = |a|/sqrt_beta
  /// elementwise (bit-identical to the scalar derivation) and writes
  /// phi[j] = SmoothedPhi(a, b). Requires n <= 256 (one stack block of the
  /// robust-mean kernels; see kSimdBlock in robust/robust_mean.cc).
  void (*smoothed_phi_transform)(const double* xs, std::size_t n,
                                 double scale, double sqrt_beta, double* phi);

  /// Lane-widened reductions of linalg/vector_ops.h: two accumulator
  /// vectors, lanes summed in index order, scalar tail.
  double (*dot)(const double* a, const double* b, std::size_t n);
  double (*distance_l2)(const double* a, const double* b, std::size_t n);

  /// Rank-k update (k <= kRankUpdateRows) of the upper triangle of the
  /// row-major d x d matrix g with the k x d row-major block `rows`:
  /// g[j*d + l] += sum_{r<k} rows[r*d + j] * rows[r*d + l] for l >= j, the
  /// k products summed in r order before the add. Elementwise in the
  /// output, so every table gives the same bits as RankUpdateUpper's scalar
  /// loop (linalg/matrix.h). The lower triangle is not touched.
  void (*rank_update_upper)(const double* rows, std::size_t k, std::size_t d,
                            double* g);
};

/// The dispatched table: probed once (first call), then a relaxed atomic
/// load. Null exactly when the vector layer is not compiled in
/// (HTDP_SIMD_COMPILED == 0) -- callers that checked SimdEnabled() first
/// will always see a table.
const SimdKernelTable* ActiveSimdKernels();

/// True when `isa` names a table that is both compiled into this binary and
/// runnable on this CPU. "baseline" is an alias for the compile-time
/// baseline table.
bool SimdIsaAvailable(const char* isa);

/// Re-pins dispatch to the named table if available; returns false (and
/// changes nothing) otherwise. Affects kernels process-wide, including
/// concurrently running Engine jobs -- production code should let the probe
/// decide; this exists for tests and bring-up triage.
bool SetSimdIsa(const char* isa);

/// RAII re-pin for tests that compare two tables in one process. Not
/// thread-safe against concurrent SetSimdIsa calls.
class ScopedSimdIsaOverride {
 public:
  explicit ScopedSimdIsaOverride(const char* isa)
      : previous_(ActiveSimdKernels()), ok_(SetSimdIsa(isa)) {}
  ~ScopedSimdIsaOverride();
  ScopedSimdIsaOverride(const ScopedSimdIsaOverride&) = delete;
  ScopedSimdIsaOverride& operator=(const ScopedSimdIsaOverride&) = delete;

  /// False when the requested ISA was unavailable (dispatch unchanged).
  bool ok() const { return ok_; }

 private:
  const SimdKernelTable* previous_;
  bool ok_;
};

namespace simd_dispatch_internal {

/// Per-TU table providers; null when that ISA's kernels are not compiled in
/// (non-x86 builds, or a baseline already at/above the variant's level).
const SimdKernelTable* BaseTable();
const SimdKernelTable* Avx2Table();
const SimdKernelTable* Avx512Table();

/// Out-of-line scalar spill of the SmoothedPhi batch kernels, compiled at
/// the BASELINE ISA (robust/catoni.cc): out[j] = SmoothedPhi(a[j], b[j]).
/// The per-ISA TUs call this for exact-split lanes instead of
/// instantiating the scalar path under wide-ISA flags (see the ODR note in
/// util/simd.h).
void SmoothedPhiScalarSpill(const double* a, const double* b, double* out,
                            std::size_t n);

}  // namespace simd_dispatch_internal

}  // namespace htdp

#endif  // HTDP_UTIL_SIMD_DISPATCH_H_
