#include "knn/kernel.h"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

namespace cpclean {
namespace {

/// κ(a, t) through the one scoring entry, with a's squared norm summed the
/// way IncompleteDataset caches it.
double Score(const SimilarityKernel& kernel, const std::vector<double>& a,
             const std::vector<double>& t) {
  double sq_norm = 0.0;
  for (const double v : a) sq_norm += v * v;
  double out = 0.0;
  kernel.SimilarityBatch(a.data(), &sq_norm, 1, static_cast<int>(a.size()),
                         t.data(), &out);
  return out;
}

TEST(NegativeEuclideanTest, ZeroAtIdentityAndSymmetric) {
  NegativeEuclideanKernel kernel;
  const std::vector<double> a = {1.0, 2.0};
  const std::vector<double> b = {4.0, 6.0};
  EXPECT_DOUBLE_EQ(Score(kernel, a, a), 0.0);
  EXPECT_DOUBLE_EQ(Score(kernel, a, b), -25.0);  // 3^2 + 4^2
  EXPECT_DOUBLE_EQ(Score(kernel, a, b), Score(kernel, b, a));
}

TEST(NegativeEuclideanTest, CloserIsMoreSimilar) {
  NegativeEuclideanKernel kernel;
  const std::vector<double> t = {0.0};
  EXPECT_GT(Score(kernel, {1.0}, t), Score(kernel, {2.0}, t));
}

TEST(RbfTest, RangeAndMonotonicity) {
  RbfKernel kernel(0.5);
  const std::vector<double> t = {0.0};
  EXPECT_DOUBLE_EQ(Score(kernel, t, t), 1.0);
  const double near = Score(kernel, {1.0}, t);
  const double far = Score(kernel, {3.0}, t);
  EXPECT_GT(near, far);
  EXPECT_GT(far, 0.0);
  EXPECT_NEAR(near, std::exp(-0.5), 1e-12);
}

TEST(RbfTest, RankEquivalentToNegativeEuclidean) {
  RbfKernel rbf(1.3);
  NegativeEuclideanKernel neg;
  const std::vector<double> t = {0.2, -0.1};
  const std::vector<std::vector<double>> points = {
      {0.0, 0.0}, {1.0, 1.0}, {-0.5, 0.3}, {2.0, -2.0}};
  for (size_t i = 0; i < points.size(); ++i) {
    for (size_t j = 0; j < points.size(); ++j) {
      EXPECT_EQ(Score(rbf, points[i], t) > Score(rbf, points[j], t),
                Score(neg, points[i], t) > Score(neg, points[j], t));
    }
  }
}

TEST(LinearTest, DotProduct) {
  LinearKernel kernel;
  EXPECT_DOUBLE_EQ(Score(kernel, {1, 2, 3}, {4, 5, 6}), 32.0);
  EXPECT_DOUBLE_EQ(Score(kernel, {0, 0}, {1, 1}), 0.0);
}

TEST(CosineTest, NormalizedAndZeroSafe) {
  CosineKernel kernel;
  EXPECT_NEAR(Score(kernel, {1, 0}, {2, 0}), 1.0, 1e-12);
  EXPECT_NEAR(Score(kernel, {1, 0}, {0, 3}), 0.0, 1e-12);
  EXPECT_NEAR(Score(kernel, {1, 1}, {-1, -1}), -1.0, 1e-12);
  EXPECT_DOUBLE_EQ(Score(kernel, {0, 0}, {1, 1}), 0.0);
}

TEST(KernelFactoryTest, MakesEveryKind) {
  EXPECT_EQ(MakeKernel(KernelKind::kNegativeEuclidean)->name(),
            "neg_euclidean");
  EXPECT_EQ(MakeKernel(KernelKind::kRbf, 2.0)->name(), "rbf");
  EXPECT_EQ(MakeKernel(KernelKind::kLinear)->name(), "linear");
  EXPECT_EQ(MakeKernel(KernelKind::kCosine)->name(), "cosine");
}

}  // namespace
}  // namespace cpclean
