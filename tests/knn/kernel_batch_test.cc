// The one scoring entry against a naive direct formula for every kernel,
// across odd dimensions and empty inputs. The entry expands the distance
// through the cached row norms, which reassociates the arithmetic, so the
// two may differ by float-rounding ulps only.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "knn/kernel.h"

namespace cpclean {
namespace {

struct Case {
  KernelKind kind;
  const char* name;
};

class KernelBatchTest : public ::testing::TestWithParam<Case> {};

std::vector<double> RandomRow(Rng* rng, int dim) {
  std::vector<double> row(static_cast<size_t>(dim));
  for (auto& v : row) v = rng->NextDouble(-3, 3);
  return row;
}

/// κ(a, t) straight from its definition: no norm expansion, no lanes.
double Direct(KernelKind kind, double gamma, const double* a, const double* t,
              int dim) {
  double sq_dist = 0.0, dot = 0.0, a_norm = 0.0, t_norm = 0.0;
  for (int d = 0; d < dim; ++d) {
    sq_dist += (a[d] - t[d]) * (a[d] - t[d]);
    dot += a[d] * t[d];
    a_norm += a[d] * a[d];
    t_norm += t[d] * t[d];
  }
  switch (kind) {
    case KernelKind::kNegativeEuclidean:
      return -sq_dist;
    case KernelKind::kRbf:
      return std::exp(-gamma * sq_dist);
    case KernelKind::kLinear:
      return dot;
    case KernelKind::kCosine:
      if (a_norm <= 0.0 || t_norm <= 0.0) return 0.0;
      return dot / std::sqrt(a_norm * t_norm);
  }
  return 0.0;
}

TEST_P(KernelBatchTest, BatchMatchesScalarAcrossShapes) {
  const double gamma = 0.7;
  const auto kernel = MakeKernel(GetParam().kind, gamma);
  ASSERT_NE(kernel, nullptr);
  Rng rng(42);
  for (const int dim : {1, 2, 3, 5, 7, 13, 64}) {
    for (const int n : {1, 2, 4, 17}) {
      std::vector<double> rows;
      std::vector<double> norms;
      for (int r = 0; r < n; ++r) {
        const std::vector<double> row = RandomRow(&rng, dim);
        double sq = 0.0;
        for (const double v : row) sq += v * v;
        norms.push_back(sq);
        rows.insert(rows.end(), row.begin(), row.end());
      }
      const std::vector<double> t = RandomRow(&rng, dim);

      std::vector<double> batch(static_cast<size_t>(n), -123.0);
      kernel->SimilarityBatch(rows.data(), norms.data(), n, dim, t.data(),
                              batch.data());

      for (int r = 0; r < n; ++r) {
        const double want =
            Direct(GetParam().kind, gamma,
                   rows.data() + static_cast<size_t>(r) * dim, t.data(), dim);
        EXPECT_NEAR(batch[static_cast<size_t>(r)], want,
                    1e-9 * (1.0 + std::abs(want)))
            << GetParam().name << " dim=" << dim << " row=" << r;
      }
    }
  }
}

TEST_P(KernelBatchTest, EmptyBatchIsANoOp) {
  const auto kernel = MakeKernel(GetParam().kind, 0.7);
  const double t[3] = {1.0, 2.0, 3.0};
  double sentinel = -7.0;
  kernel->SimilarityBatch(nullptr, nullptr, 0, 3, t, &sentinel);
  EXPECT_DOUBLE_EQ(sentinel, -7.0);
}

TEST_P(KernelBatchTest, RowByRowMatchesWholeBatch) {
  // A single-pair caller scores one row as a batch of n = 1; it must get the
  // bits a whole-batch caller gets for that row, or a certified label and
  // the classifier's prediction could disagree on a tie.
  const auto kernel = MakeKernel(GetParam().kind, 0.7);
  Rng rng(7);
  const int dim = 5, n = 6;
  std::vector<double> rows, norms;
  for (int r = 0; r < n; ++r) {
    const auto row = RandomRow(&rng, dim);
    double sq = 0.0;
    for (const double v : row) sq += v * v;
    norms.push_back(sq);
    rows.insert(rows.end(), row.begin(), row.end());
  }
  const auto t = RandomRow(&rng, dim);
  std::vector<double> whole(static_cast<size_t>(n), -123.0);
  kernel->SimilarityBatch(rows.data(), norms.data(), n, dim, t.data(),
                          whole.data());
  for (int r = 0; r < n; ++r) {
    double one = -123.0;
    kernel->SimilarityBatch(rows.data() + static_cast<size_t>(r) * dim,
                            norms.data() + r, 1, dim, t.data(), &one);
    EXPECT_EQ(std::memcmp(&one, &whole[static_cast<size_t>(r)], sizeof(one)),
              0)
        << GetParam().name << " row=" << r << ": " << one << " vs "
        << whole[static_cast<size_t>(r)];
  }
}

TEST_P(KernelBatchTest, IdenticalRowScoresAsMostSimilar) {
  // a == t must score exactly as "identical" through the norm expansion:
  // neg-Euclidean 0, RBF 1, cosine 1 (guards the cancellation clamp).
  const auto kernel = MakeKernel(GetParam().kind, 0.7);
  Rng rng(11);
  const int dim = 9;
  const auto t = RandomRow(&rng, dim);
  double norm = 0.0;
  for (const double v : t) norm += v * v;
  double out = -123.0;
  kernel->SimilarityBatch(t.data(), &norm, 1, dim, t.data(), &out);
  switch (GetParam().kind) {
    case KernelKind::kNegativeEuclidean:
      EXPECT_DOUBLE_EQ(out, 0.0);
      break;
    case KernelKind::kRbf:
      EXPECT_DOUBLE_EQ(out, 1.0);
      break;
    case KernelKind::kCosine:
      EXPECT_NEAR(out, 1.0, 1e-12);
      break;
    case KernelKind::kLinear:
      EXPECT_DOUBLE_EQ(out, norm);
      break;
  }
}

TEST(KernelBatchNormsTest, LinearIgnoresNorms) {
  // The dot product needs no norm, so the linear kernel must neither read
  // the norms nor let them change a score: absent, true and garbage norms
  // all give the same bits.
  LinearKernel kernel;
  const int dim = 3, n = 2;
  const double rows[6] = {1.0, 2.0, 3.0, -1.0, 0.5, 4.0};
  const double t[3] = {4.0, 5.0, 6.0};
  const double true_norms[2] = {14.0, 17.25};
  const double garbage_norms[2] = {-1.0, 1e300};
  double absent[2], with_true[2], with_garbage[2];
  kernel.SimilarityBatch(rows, nullptr, n, dim, t, absent);
  kernel.SimilarityBatch(rows, true_norms, n, dim, t, with_true);
  kernel.SimilarityBatch(rows, garbage_norms, n, dim, t, with_garbage);
  EXPECT_DOUBLE_EQ(absent[0], 32.0);
  EXPECT_DOUBLE_EQ(absent[1], 22.5);
  EXPECT_EQ(std::memcmp(absent, with_true, sizeof(absent)), 0);
  EXPECT_EQ(std::memcmp(absent, with_garbage, sizeof(absent)), 0);
}

INSTANTIATE_TEST_SUITE_P(
    AllKernels, KernelBatchTest,
    ::testing::Values(Case{KernelKind::kNegativeEuclidean, "neg_euclidean"},
                      Case{KernelKind::kRbf, "rbf"},
                      Case{KernelKind::kLinear, "linear"},
                      Case{KernelKind::kCosine, "cosine"}),
    [](const ::testing::TestParamInfo<Case>& info) {
      return std::string(info.param.name);
    });

}  // namespace
}  // namespace cpclean
