// AVX2 backend: the 8 accumulation lanes live in a lo/hi ymm pair, full
// 8-double blocks vectorized, the <8 remainder accumulated scalar into the
// stored lanes, then the canonical scalar reduction — the exact shape of
// the scalar reference, so results are bit-identical. This TU is compiled
// with -mavx2 -mfma -ffp-contract=off: fma is required by the dispatch
// policy (the compiler may fuse anywhere in an -mfma TU) but contraction
// is off, so the explicit mul/add intrinsics below stay unfused and match
// the other levels bit for bit.

#if !defined(__AVX2__) || !defined(__FMA__)
#error "kernel_simd_avx2.cc must be compiled with -mavx2 -mfma"
#endif

#include <immintrin.h>

#include "knn/kernel_simd.h"
#include "knn/kernel_simd_body.h"

namespace cpclean {
namespace simd {

namespace {

struct Avx2Backend {
  static double Dot(const double* a, const double* b, int dim) {
    __m256d acc_lo = _mm256_setzero_pd();
    __m256d acc_hi = _mm256_setzero_pd();
    const int blocks = dim & ~7;
    for (int d = 0; d < blocks; d += 8) {
      acc_lo = _mm256_add_pd(
          acc_lo,
          _mm256_mul_pd(_mm256_loadu_pd(a + d), _mm256_loadu_pd(b + d)));
      acc_hi = _mm256_add_pd(
          acc_hi, _mm256_mul_pd(_mm256_loadu_pd(a + d + 4),
                                _mm256_loadu_pd(b + d + 4)));
    }
    alignas(32) double lanes[8];
    _mm256_store_pd(lanes, acc_lo);
    _mm256_store_pd(lanes + 4, acc_hi);
    for (int d = blocks; d < dim; ++d) lanes[d & 7] += a[d] * b[d];
    return LaneReduce(lanes);
  }
};

}  // namespace

namespace internal {

const KernelBatchTable kTableAvx2 = {
    SimdLevel::kAvx2,
    body::NegEuclideanBatch<Avx2Backend>,
    body::RbfBatch<Avx2Backend>,
    body::LinearBatch<Avx2Backend>,
    body::CosineBatch<Avx2Backend>,
};

}  // namespace internal
}  // namespace simd
}  // namespace cpclean
