#include "knn/kernel.h"

#include "knn/kernel_simd.h"

// Each kernel is one indirect call into simd::ActiveTable(): the
// runtime-selected scalar/AVX2/AVX-512 implementations, bit-identical
// across levels (see kernel_simd.h for the shared accumulation shape).

namespace cpclean {

void NegativeEuclideanKernel::SimilarityBatch(const double* rows,
                                              const double* row_sq_norms,
                                              int n, int dim, const double* t,
                                              double* out) const {
  simd::ActiveTable().neg_euclidean(rows, row_sq_norms, n, dim, t, out);
}

void RbfKernel::SimilarityBatch(const double* rows,
                                const double* row_sq_norms, int n, int dim,
                                const double* t, double* out) const {
  simd::ActiveTable().rbf(rows, row_sq_norms, n, dim, t, gamma_, out);
}

void LinearKernel::SimilarityBatch(const double* rows,
                                   const double* /*row_sq_norms*/, int n,
                                   int dim, const double* t,
                                   double* out) const {
  simd::ActiveTable().linear(rows, n, dim, t, out);
}

void CosineKernel::SimilarityBatch(const double* rows,
                                   const double* row_sq_norms, int n, int dim,
                                   const double* t, double* out) const {
  simd::ActiveTable().cosine(rows, row_sq_norms, n, dim, t, out);
}

std::unique_ptr<SimilarityKernel> MakeKernel(KernelKind kind, double gamma) {
  switch (kind) {
    case KernelKind::kNegativeEuclidean:
      return std::make_unique<NegativeEuclideanKernel>();
    case KernelKind::kRbf:
      return std::make_unique<RbfKernel>(gamma);
    case KernelKind::kLinear:
      return std::make_unique<LinearKernel>();
    case KernelKind::kCosine:
      return std::make_unique<CosineKernel>();
  }
  return nullptr;
}

}  // namespace cpclean
