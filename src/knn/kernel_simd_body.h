// Internal to the kernel_simd_*.cc translation units — not part of the
// library API. Each per-ISA TU instantiates these per-kernel batch bodies
// with a Backend supplying the one row primitive:
//
//   static double Dot(const double* a, const double* b, int dim);
//
// Every backend must honor the fixed 8-lane accumulation shape documented
// in kernel_simd.h; everything outside the primitive (norm expansion,
// cancellation clamp, exp/sqrt sweeps, zero guards) is shared here, so the
// per-row arithmetic surrounding the hot loops cannot drift between ISA
// levels.

#ifndef CPCLEAN_KNN_KERNEL_SIMD_BODY_H_
#define CPCLEAN_KNN_KERNEL_SIMD_BODY_H_

#include <cmath>
#include <cstddef>

namespace cpclean {
namespace simd {
namespace body {

template <typename Backend>
void NegEuclideanBatch(const double* rows, const double* row_sq_norms, int n,
                       int dim, const double* t, double* out) {
  const double t_norm = Backend::Dot(t, t, dim);
  for (int r = 0; r < n; ++r) {
    const double dot =
        Backend::Dot(rows + static_cast<size_t>(r) * dim, t, dim);
    // ||a - t||^2 expanded; cancellation can dip epsilon-negative, and a
    // similarity above "identical" would poison the descending scan order.
    double d2 = row_sq_norms[r] - 2.0 * dot + t_norm;
    if (d2 < 0.0) d2 = 0.0;
    out[r] = -d2;
  }
}

template <typename Backend>
void RbfBatch(const double* rows, const double* row_sq_norms, int n, int dim,
              const double* t, double gamma, double* out) {
  const double t_norm = Backend::Dot(t, t, dim);
  for (int r = 0; r < n; ++r) {
    const double dot =
        Backend::Dot(rows + static_cast<size_t>(r) * dim, t, dim);
    double d2 = row_sq_norms[r] - 2.0 * dot + t_norm;
    if (d2 < 0.0) d2 = 0.0;
    out[r] = -gamma * d2;
  }
  // Scalar exp sweep in every backend: one libm, identical transcendentals.
  for (int r = 0; r < n; ++r) out[r] = std::exp(out[r]);
}

template <typename Backend>
void LinearBatch(const double* rows, int n, int dim, const double* t,
                 double* out) {
  for (int r = 0; r < n; ++r) {
    out[r] = Backend::Dot(rows + static_cast<size_t>(r) * dim, t, dim);
  }
}

template <typename Backend>
void CosineBatch(const double* rows, const double* row_sq_norms, int n,
                 int dim, const double* t, double* out) {
  const double t_norm = Backend::Dot(t, t, dim);
  for (int r = 0; r < n; ++r) {
    const double dot =
        Backend::Dot(rows + static_cast<size_t>(r) * dim, t, dim);
    const double na = row_sq_norms[r];
    out[r] = (na <= 0.0 || t_norm <= 0.0) ? 0.0 : dot / std::sqrt(na * t_norm);
  }
}

}  // namespace body
}  // namespace simd
}  // namespace cpclean

#endif  // CPCLEAN_KNN_KERNEL_SIMD_BODY_H_
