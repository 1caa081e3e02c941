// Coverage for CleaningSession's tracking options and trace content, plus
// the BuildCleaningTask candidate-space corner cases.

#include <gtest/gtest.h>

#include "cleaning/cp_clean.h"
#include "core/fast_q2.h"
#include "data/csv.h"
#include "eval/experiment.h"
#include "knn/kernel.h"

namespace cpclean {
namespace {

PreparedExperiment MakePrepared(uint64_t seed) {
  ExperimentConfig config;
  config.dataset.name = "unit";
  config.dataset.synthetic.num_rows = 40 + 10 + 16;
  config.dataset.synthetic.num_numeric = 3;
  config.dataset.synthetic.num_categorical = 1;
  config.dataset.synthetic.num_categories = 4;
  config.dataset.synthetic.noise_sigma = 0.4;
  config.dataset.synthetic.seed = seed;
  config.dataset.missing_rate = 0.12;
  config.dataset.val_size = 10;
  config.dataset.test_size = 16;
  config.seed = seed;
  static NegativeEuclideanKernel kernel;
  return PrepareExperiment(config, kernel).value();
}

/// Mean Q2 entropy of the validation points over `dataset`'s worlds.
double MeanValEntropy(const IncompleteDataset& dataset,
                      const CleaningTask& task,
                      const SimilarityKernel& kernel, int k) {
  FastQ2 q2(&dataset, k);
  double total = 0.0;
  for (const std::vector<double>& v : task.val_x) {
    q2.SetTestPoint(v, kernel);
    total += q2.EntropyUnpinned();
  }
  return total / static_cast<double>(task.val_x.size());
}

TEST(SessionTrackingTest, EntropyTrackingIsMonotoneOnAverage) {
  const PreparedExperiment prepared = MakePrepared(41);
  NegativeEuclideanKernel kernel;
  CpCleanOptions options;
  options.k = 3;
  options.track_test_accuracy = false;
  CleaningSession session(&prepared.task, &kernel, options);
  const double before =
      MeanValEntropy(session.working(), prepared.task, kernel, options.k);
  const CleaningRunResult run = session.RunCpClean();
  ASSERT_GE(run.steps.size(), 2u);
  // Mean validation entropy must end at 0 (all points certain) and be
  // strictly positive at the start if any cleaning was needed.
  EXPECT_TRUE(run.all_val_certain);
  EXPECT_DOUBLE_EQ(
      MeanValEntropy(session.working(), prepared.task, kernel, options.k),
      0.0);
  if (run.examples_cleaned > 0) {
    EXPECT_GT(before, 0.0);
  }
}

TEST(SessionTrackingTest, DisabledTrackingLeavesZeros) {
  const PreparedExperiment prepared = MakePrepared(43);
  NegativeEuclideanKernel kernel;
  CpCleanOptions options;
  options.k = 3;
  options.track_test_accuracy = false;
  options.max_cleaned = 2;
  CleaningSession session(&prepared.task, &kernel, options);
  const CleaningRunResult run = session.RunCpClean();
  for (const auto& step : run.steps) {
    EXPECT_DOUBLE_EQ(step.test_accuracy, 0.0);
  }
  // final_test_accuracy is still computed on demand.
  EXPECT_GT(run.final_test_accuracy, 0.0);
}

TEST(SessionTrackingTest, StepsRecordCleanedExamples) {
  const PreparedExperiment prepared = MakePrepared(47);
  NegativeEuclideanKernel kernel;
  CpCleanOptions options;
  options.k = 3;
  options.track_test_accuracy = false;
  CleaningSession session(&prepared.task, &kernel, options);
  const CleaningRunResult run = session.RunCpClean();
  EXPECT_EQ(run.steps.front().cleaned_example, -1);  // baseline row
  const auto dirty = prepared.task.DirtyRows();
  for (size_t s = 1; s < run.steps.size(); ++s) {
    const int cleaned = run.steps[s].cleaned_example;
    EXPECT_NE(std::find(dirty.begin(), dirty.end(), cleaned), dirty.end())
        << "cleaned a non-dirty row";
    EXPECT_EQ(run.steps[s].step, static_cast<int>(s));
  }
}

TEST(SessionTrackingTest, MixedTypeTaskRunsEndToEnd) {
  // The prepared task above includes a categorical feature column, so this
  // covers one-hot candidate encoding through the whole CPClean loop.
  const PreparedExperiment prepared = MakePrepared(53);
  ASSERT_GT(prepared.dirty_rows, 0);
  NegativeEuclideanKernel kernel;
  CpCleanOptions options;
  options.k = 3;
  CleaningSession session(&prepared.task, &kernel, options);
  const CleaningRunResult run = session.RunCpClean();
  EXPECT_TRUE(run.all_val_certain);
}

TEST(CandidateSpaceTest, MultiMissingRowGetsCartesianCandidates) {
  // Two missing cells in one row -> candidate count is the product of the
  // per-cell repair counts (numeric 5 x categorical top-k+1).
  Table clean = ReadCsvString(
                    "x,c,label\n"
                    "1,a,0\n2,b,0\n3,a,1\n4,c,1\n5,b,1\n6,a,0\n")
                    .value();
  Table dirty = clean;
  dirty.Set(0, 0, Value::Null());
  dirty.Set(0, 1, Value::Null());
  const CleaningTask task =
      BuildCleaningTask(dirty, clean, clean, clean, "label").value();
  // 5 numeric stats (distinct here) x (3 distinct categories + other) = 20.
  EXPECT_EQ(task.incomplete.num_candidates(0), 20);
  // The oracle's answer reconstructs something close to the truth.
  const int truth_candidate = task.true_candidate[0];
  EXPECT_GE(truth_candidate, 0);
  EXPECT_LT(truth_candidate, 20);
}

}  // namespace
}  // namespace cpclean
