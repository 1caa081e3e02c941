// The scalar reference implementations — always compiled, every platform.
// Its lane-structured dot product *defines* the bit pattern the vector TUs
// must reproduce. Built with -ffp-contract=off (like the vector TUs) so a
// -march=native build cannot fuse multiply-adds here and break cross-level
// identity.

#include "knn/kernel_simd.h"
#include "knn/kernel_simd_body.h"

namespace cpclean {
namespace simd {

namespace {

struct ScalarBackend {
  static double Dot(const double* a, const double* b, int dim) {
    double lanes[8] = {0, 0, 0, 0, 0, 0, 0, 0};
    const int blocks = dim & ~7;
    for (int d = 0; d < blocks; d += 8) {
      for (int l = 0; l < 8; ++l) lanes[l] += a[d + l] * b[d + l];
    }
    for (int d = blocks; d < dim; ++d) lanes[d & 7] += a[d] * b[d];
    return LaneReduce(lanes);
  }
};

}  // namespace

namespace internal {

const KernelBatchTable kTableScalar = {
    SimdLevel::kScalar,
    body::NegEuclideanBatch<ScalarBackend>,
    body::RbfBatch<ScalarBackend>,
    body::LinearBatch<ScalarBackend>,
    body::CosineBatch<ScalarBackend>,
};

}  // namespace internal
}  // namespace simd
}  // namespace cpclean
