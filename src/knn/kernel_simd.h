#ifndef CPCLEAN_KNN_KERNEL_SIMD_H_
#define CPCLEAN_KNN_KERNEL_SIMD_H_

#include "common/cpu_features.h"

namespace cpclean {
namespace simd {

/// Per-ISA implementations of the four kernels' batched entries, one per
/// kernel, selected once per process into a function-pointer table.
///
/// Bit-identity contract: every level produces **bit-identical doubles**.
/// Each backend supplies one row primitive, the dot product, and every
/// implementation — the scalar reference included — accumulates it in the
/// same fixed 8-lane shape: lane `d % 8` owns element `d`'s contribution
/// (full 8-wide blocks vectorize directly; the <8 remainder accumulates
/// scalar into the same lanes), and one canonical reduction tree
///
///     t_i = lane[i] + lane[i+4]   (i = 0..3)
///     sum = (t0 + t2) + (t1 + t3)
///
/// collapses the lanes. An AVX-512 register holds the 8 lanes outright;
/// AVX2 holds them as a lo/hi ymm pair; scalar walks them in an 8-double
/// array the autovectorizer may (legally, exactly) vectorize. The SIMD
/// translation units are compiled with `-ffp-contract=off` so `-mfma` (or
/// `-march=native`) cannot fuse a multiply-add on one level only. The
/// repo-wide determinism invariant — results independent of thread count,
/// contribution bounds, snapshot replay — therefore extends across ISA
/// levels: FastQ2, certification, replay verification, and the serve
/// layer's version-stamped caches never observe which path ran.
///
/// The norm expansion, RBF's `exp` and cosine's `sqrt`/zero-guard run as
/// scalar per-row arithmetic shared by every implementation
/// (knn/kernel_simd_body.h), so the one libm in the process keeps those
/// transcendentals identical too.
struct KernelBatchTable {
  SimdLevel level;
  /// -||a - t||² from the cached squared row norms.
  void (*neg_euclidean)(const double* rows, const double* row_sq_norms, int n,
                        int dim, const double* t, double* out);
  /// exp(-gamma ||a - t||²) from the cached squared row norms.
  void (*rbf)(const double* rows, const double* row_sq_norms, int n, int dim,
              const double* t, double gamma, double* out);
  /// <a, t>; needs no norms.
  void (*linear)(const double* rows, int n, int dim, const double* t,
                 double* out);
  /// <a, t> / (||a|| ||t||) from the cached squared row norms.
  void (*cosine)(const double* rows, const double* row_sq_norms, int n,
                 int dim, const double* t, double* out);
};

/// The table for `level`, or nullptr when this binary has no translation
/// unit for it or the host CPU cannot run it. `kScalar` never fails.
/// Benches and the cross-ISA tests use this to pin a level in-process.
const KernelBatchTable* TableForLevel(SimdLevel level);

/// Highest level this binary carries a translation unit for (a build-time
/// property: the CMake feature tests gate each per-ISA TU).
SimdLevel MaxCompiledSimdLevel();

/// The process-wide table: resolved once from `CPCLEAN_SIMD` (see
/// `ResolveSimdLevel`) ∧ hardware detection ∧ compiled TUs. An override
/// naming an unusable level aborts loudly on first use — a forced fleet
/// must fail fast, not silently downgrade.
const KernelBatchTable& ActiveTable();

/// The level `ActiveTable` resolved to, for `stats` / bench reporting.
SimdLevel ActiveSimdLevel();

/// The canonical reduction tree every backend collapses its 8 lanes with.
inline double LaneReduce(const double lanes[8]) {
  const double t0 = lanes[0] + lanes[4];
  const double t1 = lanes[1] + lanes[5];
  const double t2 = lanes[2] + lanes[6];
  const double t3 = lanes[3] + lanes[7];
  return (t0 + t2) + (t1 + t3);
}

namespace internal {
// One table per compiled translation unit; referenced by the dispatcher
// under the matching CPCLEAN_SIMD_HAVE_* definition.
extern const KernelBatchTable kTableScalar;
extern const KernelBatchTable kTableAvx2;
extern const KernelBatchTable kTableAvx512;
}  // namespace internal

}  // namespace simd
}  // namespace cpclean

#endif  // CPCLEAN_KNN_KERNEL_SIMD_H_
