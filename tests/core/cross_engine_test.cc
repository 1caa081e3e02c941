// Medium-scale consistency: at sizes far beyond brute-force reach, every
// polynomial engine must still agree with every other (they implement the
// same mathematics through different data structures), and the facade must
// route to sound engines.

#include <gtest/gtest.h>

#include "core/certain_predictor.h"
#include "core/fast_q2.h"
#include "core/mm.h"
#include "core/ss.h"
#include "core/ss1.h"
#include "core/ss_dc.h"
#include "core/ss_dc_mc.h"
#include "knn/kernel.h"
#include "tests/test_util.h"

namespace cpclean {
namespace {

using testing_util::MakeRandomDataset;
using testing_util::MakeRandomTestPoint;
using testing_util::RandomDatasetSpec;

class CrossEngineTest : public ::testing::TestWithParam<int> {};

TEST_P(CrossEngineTest, EnginesAgreeAtMediumScale) {
  const int seed = GetParam();
  RandomDatasetSpec spec;
  spec.num_examples = 80;
  spec.max_candidates = 4;
  spec.num_labels = 2 + seed % 2;
  spec.dim = 3;
  spec.seed = static_cast<uint64_t>(seed);
  spec.tie_prob = seed % 3 == 0 ? 0.5 : 0.0;
  const IncompleteDataset dataset = MakeRandomDataset(spec);
  const auto t = MakeRandomTestPoint(spec.dim, static_cast<uint64_t>(seed));
  NegativeEuclideanKernel kernel;
  const int k = 3;

  const auto naive =
      SsCount<DoubleSemiring, true>(dataset, t, kernel, k).per_label;
  const auto dc =
      SsDcCount<DoubleSemiring, true>(dataset, t, kernel, k).per_label;
  const auto mc =
      SsDcMcCount<DoubleSemiring, true>(dataset, t, kernel, k).per_label;
  FastQ2 fast(&dataset, k, 0.0);
  fast.SetTestPoint(t, kernel);
  const auto fastq = fast.Fractions();

  double naive_sum = 0.0;
  for (size_t y = 0; y < naive.size(); ++y) {
    EXPECT_NEAR(naive[y], dc[y], 1e-9) << "naive vs dc, label " << y;
    EXPECT_NEAR(naive[y], mc[y], 1e-9) << "naive vs mc, label " << y;
    EXPECT_NEAR(naive[y], fastq[y], 1e-9) << "naive vs fastq2, label " << y;
    naive_sum += naive[y];
  }
  EXPECT_NEAR(naive_sum, 1.0, 1e-9);

  // Q1: bool-semiring SS agrees with the fractions' support set, and MM
  // agrees in the binary case.
  const std::vector<bool> possible = SsPossibleLabels(dataset, t, kernel, k);
  for (size_t y = 0; y < possible.size(); ++y) {
    if (dc[y] > 1e-12) {
      EXPECT_TRUE(possible[y]) << "label " << y << " has mass but not possible";
    }
    if (!possible[y]) {
      EXPECT_NEAR(dc[y], 0.0, 1e-12);
    }
  }
  if (dataset.num_labels() == 2) {
    const std::vector<bool> mm = MmPossibleLabels(dataset, t, kernel, k);
    EXPECT_EQ(mm, possible);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CrossEngineTest, ::testing::Range(1, 11));

TEST(CertainPredictorTest, FacadeRoutesAndAgrees) {
  RandomDatasetSpec spec;
  spec.num_examples = 30;
  spec.max_candidates = 3;
  spec.num_labels = 3;  // forces the SS-based Q1 path
  spec.seed = 5;
  const IncompleteDataset dataset = MakeRandomDataset(spec);
  const auto t = MakeRandomTestPoint(spec.dim, 5);
  NegativeEuclideanKernel kernel;
  const CertainPredictor predictor(&kernel, 3);
  EXPECT_EQ(predictor.k(), 3);

  const CheckResult check = predictor.Check(dataset, t);
  EXPECT_EQ(check.CertainLabel(),
            SsCheck(dataset, t, kernel, 3).CertainLabel());
  EXPECT_EQ(predictor.IsCertain(dataset, t), check.CertainLabel() >= 0);
}

TEST(CrossEngineK1Test, Ss1MatchesSsDc) {
  RandomDatasetSpec spec;
  spec.num_examples = 25;
  spec.max_candidates = 3;
  spec.num_labels = 2;
  spec.seed = 8;
  const IncompleteDataset dataset = MakeRandomDataset(spec);
  const auto t = MakeRandomTestPoint(spec.dim, 8);
  NegativeEuclideanKernel kernel;
  const auto fast_path =
      Ss1Count<DoubleSemiring, true>(dataset, t, kernel).per_label;
  const auto general =
      SsDcCount<DoubleSemiring, true>(dataset, t, kernel, 1).per_label;
  for (size_t y = 0; y < general.size(); ++y) {
    EXPECT_NEAR(fast_path[y], general[y], 1e-9);
  }
}

TEST(CertainPredictorTest, CertainLabelOptional) {
  IncompleteDataset dataset(2);
  CP_CHECK(dataset.AddCleanExample({0.0}, 1).ok());
  CP_CHECK(dataset.AddCleanExample({10.0}, 0).ok());
  NegativeEuclideanKernel kernel;
  const CertainPredictor predictor(&kernel, 1);
  const auto certain = predictor.CertainLabel(dataset, {0.1});
  ASSERT_TRUE(certain.has_value());
  EXPECT_EQ(*certain, 1);
}

}  // namespace
}  // namespace cpclean
