// AVX-512F backend: one zmm register holds all 8 accumulation lanes.
// Same fixed lane shape + scalar remainder + canonical reduction as the
// scalar reference and the AVX2 pair — bit-identical across levels.
// Compiled with -mavx512f -ffp-contract=off (see kernel_simd_avx2.cc for
// why contraction must stay off).

#ifndef __AVX512F__
#error "kernel_simd_avx512.cc must be compiled with -mavx512f"
#endif

#include <immintrin.h>

#include "knn/kernel_simd.h"
#include "knn/kernel_simd_body.h"

namespace cpclean {
namespace simd {

namespace {

struct Avx512Backend {
  static double Dot(const double* a, const double* b, int dim) {
    __m512d acc = _mm512_setzero_pd();
    const int blocks = dim & ~7;
    for (int d = 0; d < blocks; d += 8) {
      acc = _mm512_add_pd(
          acc, _mm512_mul_pd(_mm512_loadu_pd(a + d), _mm512_loadu_pd(b + d)));
    }
    alignas(64) double lanes[8];
    _mm512_store_pd(lanes, acc);
    for (int d = blocks; d < dim; ++d) lanes[d & 7] += a[d] * b[d];
    return LaneReduce(lanes);
  }
};

}  // namespace

namespace internal {

const KernelBatchTable kTableAvx512 = {
    SimdLevel::kAvx512,
    body::NegEuclideanBatch<Avx512Backend>,
    body::RbfBatch<Avx512Backend>,
    body::LinearBatch<Avx512Backend>,
    body::CosineBatch<Avx512Backend>,
};

}  // namespace internal
}  // namespace simd
}  // namespace cpclean
