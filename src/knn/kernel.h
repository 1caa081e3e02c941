#ifndef CPCLEAN_KNN_KERNEL_H_
#define CPCLEAN_KNN_KERNEL_H_

#include <memory>
#include <string>

namespace cpclean {

/// Similarity kernel κ(x, t) between feature vectors (paper §3, Fig. 5).
/// Larger values mean "more similar"; KNN takes the top-K by similarity.
///
/// One scoring entry: `SimilarityBatch(rows, row_sq_norms, n, dim, t, out)`
/// scores `n` row-major contiguous rows (`rows[r*dim .. r*dim+dim)`) against
/// one test point and writes `out[r]`, with no virtual dispatch, allocation,
/// or bounds checks inside the loop. `row_sq_norms[r]` is the cached squared
/// L2 norm of row `r` (as maintained by `IncompleteDataset::flat_sq_norms()`)
/// and is required whenever `n > 0`: neg-Euclidean and RBF expand
/// ||a - t||² = ||a||² - 2⟨a,t⟩ + ||t||², cosine takes ||a||² as its
/// denominator, and linear ignores it. Each kernel routes through one entry
/// of the runtime-dispatched scalar/AVX2/AVX-512 table in knn/kernel_simd.h,
/// and every dispatch level returns **bit-identical** doubles. Every scorer
/// in this repo — the CP engines, the cleaning selection *and*
/// KnnClassifier — calls this one entry, so certified labels and actual
/// predictions always agree exactly.
class SimilarityKernel {
 public:
  virtual ~SimilarityKernel() = default;

  /// Scores `n` contiguous rows against `t`; see the contract above.
  virtual void SimilarityBatch(const double* rows, const double* row_sq_norms,
                               int n, int dim, const double* t,
                               double* out) const = 0;

  /// Kernel name for reporting.
  virtual std::string name() const = 0;
};

/// Negative squared Euclidean distance: the paper's experimental setting
/// ("Euclidean distance as the similarity function") — rank-equivalent to
/// any monotone transform such as RBF.
class NegativeEuclideanKernel final : public SimilarityKernel {
 public:
  void SimilarityBatch(const double* rows, const double* row_sq_norms, int n,
                       int dim, const double* t, double* out) const override;
  std::string name() const override { return "neg_euclidean"; }
};

/// RBF kernel exp(-gamma * ||a-b||^2).
class RbfKernel final : public SimilarityKernel {
 public:
  explicit RbfKernel(double gamma = 1.0) : gamma_(gamma) {}
  void SimilarityBatch(const double* rows, const double* row_sq_norms, int n,
                       int dim, const double* t, double* out) const override;
  std::string name() const override { return "rbf"; }
  double gamma() const { return gamma_; }

 private:
  double gamma_;
};

/// Linear kernel <a, b>.
class LinearKernel final : public SimilarityKernel {
 public:
  void SimilarityBatch(const double* rows, const double* row_sq_norms, int n,
                       int dim, const double* t, double* out) const override;
  std::string name() const override { return "linear"; }
};

/// Cosine similarity <a,b> / (||a|| ||b||); 0 when either vector is zero.
class CosineKernel final : public SimilarityKernel {
 public:
  void SimilarityBatch(const double* rows, const double* row_sq_norms, int n,
                       int dim, const double* t, double* out) const override;
  std::string name() const override { return "cosine"; }
};

enum class KernelKind { kNegativeEuclidean, kRbf, kLinear, kCosine };

/// Factory for the built-in kernels.
std::unique_ptr<SimilarityKernel> MakeKernel(KernelKind kind,
                                             double gamma = 1.0);

}  // namespace cpclean

#endif  // CPCLEAN_KNN_KERNEL_H_
