#include "incomplete/incomplete_dataset.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>

namespace cpclean {
namespace {

IncompleteDataset MakeDataset() {
  IncompleteDataset dataset(2);
  CP_CHECK(dataset.AddCleanExample({1.0, 2.0}, 0).ok());
  CP_CHECK(dataset.AddExample({{{3.0, 4.0}, {5.0, 6.0}}, 1}).ok());
  CP_CHECK(dataset.AddExample({{{0.0, 0.0}, {1.0, 1.0}, {2.0, 2.0}}, 0}).ok());
  return dataset;
}

TEST(IncompleteDatasetTest, BasicAccessors) {
  const IncompleteDataset dataset = MakeDataset();
  EXPECT_EQ(dataset.num_examples(), 3);
  EXPECT_EQ(dataset.num_labels(), 2);
  EXPECT_EQ(dataset.dim(), 2);
  EXPECT_EQ(dataset.num_candidates(0), 1);
  EXPECT_EQ(dataset.num_candidates(2), 3);
  EXPECT_EQ(dataset.max_candidates(), 3);
  EXPECT_EQ(dataset.label(1), 1);
  EXPECT_EQ(dataset.candidate(1, 1), (std::vector<double>{5.0, 6.0}));
}

TEST(IncompleteDatasetTest, ValidationRejectsBadExamples) {
  IncompleteDataset dataset(2);
  // Empty candidate set.
  EXPECT_FALSE(dataset.AddExample({{}, 0}).ok());
  // Label out of range.
  EXPECT_FALSE(dataset.AddExample({{{1.0}}, 2}).ok());
  EXPECT_FALSE(dataset.AddExample({{{1.0}}, -1}).ok());
  // Inconsistent dims within a candidate set.
  EXPECT_FALSE(dataset.AddExample({{{1.0}, {1.0, 2.0}}, 0}).ok());
  // Dim mismatch across examples.
  ASSERT_TRUE(dataset.AddCleanExample({1.0, 2.0}, 0).ok());
  EXPECT_FALSE(dataset.AddCleanExample({1.0}, 0).ok());
}

TEST(IncompleteDatasetTest, CompletenessAndDirtyList) {
  IncompleteDataset dataset = MakeDataset();
  EXPECT_FALSE(dataset.IsComplete());
  EXPECT_EQ(dataset.DirtyExamples(), (std::vector<int>{1, 2}));
  dataset.FixExample(1, 0);
  dataset.FixExample(2, 2);
  EXPECT_TRUE(dataset.IsComplete());
  EXPECT_TRUE(dataset.DirtyExamples().empty());
}

TEST(IncompleteDatasetTest, WorldCounting) {
  const IncompleteDataset dataset = MakeDataset();
  EXPECT_EQ(dataset.NumPossibleWorlds(), BigUint(6));  // 1 * 2 * 3
  EXPECT_NEAR(dataset.Log2NumPossibleWorlds(), std::log2(6.0), 1e-12);
}

TEST(IncompleteDatasetTest, FixExampleKeepsChosenValue) {
  IncompleteDataset dataset = MakeDataset();
  dataset.FixExample(2, 1);
  EXPECT_EQ(dataset.num_candidates(2), 1);
  EXPECT_EQ(dataset.candidate(2, 0), (std::vector<double>{1.0, 1.0}));
  EXPECT_EQ(dataset.NumPossibleWorlds(), BigUint(2));
}

TEST(IncompleteDatasetTest, ExampleCopiesRowsOutOfTheSlab) {
  IncompleteDataset dataset = MakeDataset();
  const IncompleteExample before = dataset.example(2);
  EXPECT_EQ(before.label, 0);
  EXPECT_EQ(before.candidates,
            (std::vector<std::vector<double>>{{0.0, 0.0}, {1.0, 1.0},
                                              {2.0, 2.0}}));
  dataset.FixExample(2, 2);
  EXPECT_EQ(dataset.example(2).candidates,
            (std::vector<std::vector<double>>{{2.0, 2.0}}));
}

// --- Flat slab --------------------------------------------------------------

// Every active candidate must be readable through the flat view at its
// flat row, and its cached squared norm must match its doubles.
void ExpectFlatRowsAndNorms(const IncompleteDataset& dataset) {
  for (int i = 0; i < dataset.num_examples(); ++i) {
    for (int j = 0; j < dataset.num_candidates(i); ++j) {
      const std::vector<double> want = dataset.candidate(i, j);
      const double* got = dataset.candidate_ptr(i, j);
      double sq = 0.0;
      for (int d = 0; d < dataset.dim(); ++d) {
        EXPECT_DOUBLE_EQ(got[d], want[static_cast<size_t>(d)])
            << "candidate (" << i << "," << j << ") dim " << d;
        sq += want[static_cast<size_t>(d)] * want[static_cast<size_t>(d)];
      }
      EXPECT_DOUBLE_EQ(dataset.candidate_sq_norm(i, j), sq);
      EXPECT_EQ(got, dataset.flat_data() +
                         static_cast<size_t>(dataset.flat_row(i, j)) *
                             static_cast<size_t>(dataset.dim()));
    }
  }
}

TEST(IncompleteDatasetFlatTest, FreshDatasetIsCompactAndMirrored) {
  const IncompleteDataset dataset = MakeDataset();
  EXPECT_EQ(dataset.total_candidates(), 6);
  EXPECT_TRUE(dataset.flat_is_compact());
  ExpectFlatRowsAndNorms(dataset);
  // Example rows are adjacent: example 1 starts right after example 0.
  EXPECT_EQ(dataset.flat_row(0, 0), 0);
  EXPECT_EQ(dataset.flat_row(1, 0), 1);
  EXPECT_EQ(dataset.flat_row(2, 0), 3);
}

TEST(IncompleteDatasetFlatTest, FixExampleCollapsesInPlace) {
  IncompleteDataset dataset = MakeDataset();
  const int chosen_row = dataset.flat_row(2, 1);
  const double chosen_norm = dataset.candidate_sq_norm(2, 1);
  dataset.FixExample(2, 1);
  EXPECT_EQ(dataset.total_candidates(), 4);
  // The chosen row and its cached norm move onto the example's first row,
  // bit for bit; the slab keeps its offsets.
  EXPECT_EQ(dataset.flat_row(2, 0), chosen_row - 1);
  EXPECT_EQ(std::memcmp(&chosen_norm, &dataset.flat_sq_norms()[chosen_row - 1],
                        sizeof(double)),
            0);
  // Retired rows stay in the slab (stable offsets), so it is not compact.
  EXPECT_FALSE(dataset.flat_is_compact());
  ExpectFlatRowsAndNorms(dataset);
  EXPECT_DOUBLE_EQ(dataset.candidate_ptr(2, 0)[0], 1.0);
  EXPECT_DOUBLE_EQ(dataset.candidate_sq_norm(2, 0), 2.0);
}

TEST(IncompleteDatasetFlatTest, MirrorSurvivesMixedMutation) {
  IncompleteDataset dataset = MakeDataset();
  dataset.FixExample(1, 1);
  ASSERT_TRUE(dataset.AddExample({{{1.5, 2.5}, {3.5, 4.5}}, 1}).ok());
  dataset.FixExample(3, 1);
  ExpectFlatRowsAndNorms(dataset);
  EXPECT_EQ(dataset.total_candidates(), 1 + 1 + 3 + 1);
  // Appended after a fix, the new example's rows follow the retired ones.
  EXPECT_EQ(dataset.flat_row(3, 0), 6);
  EXPECT_EQ(dataset.candidate(3, 0), (std::vector<double>{3.5, 4.5}));
}

}  // namespace
}  // namespace cpclean
