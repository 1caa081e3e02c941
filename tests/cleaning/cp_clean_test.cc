#include "cleaning/cp_clean.h"

#include <gtest/gtest.h>

#include <limits>
#include <set>

#include "cleaning/missing_injector.h"
#include "common/stats.h"
#include "core/certain_predictor.h"
#include "core/ss_dc.h"
#include "data/split.h"
#include "datasets/synthetic.h"
#include "eval/experiment.h"
#include "knn/kernel.h"

namespace cpclean {
namespace {

/// Small but realistic task: 40 train rows, 12 val, MNAR 15%.
PreparedExperiment MakePrepared(uint64_t seed = 3) {
  ExperimentConfig config;
  config.dataset.name = "unit";
  config.dataset.synthetic.num_rows = 40 + 12 + 20;
  config.dataset.synthetic.num_numeric = 4;
  config.dataset.synthetic.num_categorical = 0;
  config.dataset.synthetic.noise_sigma = 0.3;
  config.dataset.synthetic.seed = seed;
  config.dataset.missing_rate = 0.15;
  config.dataset.val_size = 12;
  config.dataset.test_size = 20;
  config.k = 3;
  config.seed = seed;
  static NegativeEuclideanKernel kernel;
  return PrepareExperiment(config, kernel).value();
}

TEST(CleaningSessionTest, CpCleanTerminatesWithAllValCertain) {
  const PreparedExperiment prepared = MakePrepared();
  NegativeEuclideanKernel kernel;
  CpCleanOptions options;
  options.k = 3;
  CleaningSession session(&prepared.task, &kernel, options);
  const CleaningRunResult run = session.RunCpClean();
  EXPECT_TRUE(run.all_val_certain);
  EXPECT_LE(run.examples_cleaned, prepared.dirty_rows);
  EXPECT_EQ(run.steps.size(), static_cast<size_t>(run.examples_cleaned) + 1);
  // Once all validation examples are CP'ed, the trace ends.
  EXPECT_DOUBLE_EQ(run.steps.back().frac_val_certain, 1.0);
}

TEST(CleaningSessionTest, CertaintyFractionIsMonotone) {
  const PreparedExperiment prepared = MakePrepared(5);
  NegativeEuclideanKernel kernel;
  CpCleanOptions options;
  options.k = 3;
  CleaningSession session(&prepared.task, &kernel, options);
  const CleaningRunResult run = session.RunCpClean();
  for (size_t s = 1; s < run.steps.size(); ++s) {
    EXPECT_GE(run.steps[s].frac_val_certain,
              run.steps[s - 1].frac_val_certain)
        << "CP'ed points must stay CP'ed (cleaning removes worlds)";
  }
}

TEST(CleaningSessionTest, NeverCleansTheSameExampleTwice) {
  const PreparedExperiment prepared = MakePrepared(7);
  NegativeEuclideanKernel kernel;
  CpCleanOptions options;
  options.k = 3;
  options.stop_when_all_certain = false;  // run the full trajectory
  CleaningSession session(&prepared.task, &kernel, options);
  const CleaningRunResult run = session.RunCpClean();
  std::set<int> cleaned;
  for (size_t s = 1; s < run.steps.size(); ++s) {
    const int example = run.steps[s].cleaned_example;
    EXPECT_TRUE(cleaned.insert(example).second)
        << "example " << example << " cleaned twice";
  }
  // Full run cleans every dirty example.
  EXPECT_EQ(run.examples_cleaned, prepared.dirty_rows);
}

TEST(CleaningSessionTest, FullCleaningReachesGroundTruthWorld) {
  const PreparedExperiment prepared = MakePrepared(9);
  NegativeEuclideanKernel kernel;
  CpCleanOptions options;
  options.k = 3;
  options.stop_when_all_certain = false;
  CleaningSession session(&prepared.task, &kernel, options);
  const CleaningRunResult run = session.RunCpClean();
  // The oracle picks the candidate nearest the truth, so after cleaning
  // everything the world is the oracle world; its accuracy should be close
  // to the ground-truth accuracy (equal when candidates contain the truth).
  EXPECT_NEAR(run.final_test_accuracy, prepared.ground_truth_test_accuracy,
              0.15);
}

TEST(CleaningSessionTest, BudgetStopsEarly) {
  const PreparedExperiment prepared = MakePrepared(11);
  NegativeEuclideanKernel kernel;
  CpCleanOptions options;
  options.k = 3;
  options.max_cleaned = 3;
  CleaningSession session(&prepared.task, &kernel, options);
  const CleaningRunResult run = session.RunCpClean();
  EXPECT_LE(run.examples_cleaned, 3);
}

/// Reference selection score (paper Equation 4): the expected mean
/// validation entropy after cleaning example `i` of `working`, averaging
/// over its candidates as equally likely truths. Computed from scratch
/// with the double SS-DC engine on a copy of the dataset, independent of
/// FastQ2. Only the `uncertain` validation points contribute: a certain
/// point has zero entropy in every refinement, and the production
/// selection skips it.
double ReferenceExpectedEntropy(
    const IncompleteDataset& working,
    const std::vector<std::vector<double>>& uncertain, size_t num_val,
    const SimilarityKernel& kernel, int k, int i) {
  const int m = working.num_candidates(i);
  double expected = 0.0;
  for (int j = 0; j < m; ++j) {
    // Pin candidate j as the truth: same doubles, same cached norm.
    IncompleteDataset scratch = working;
    scratch.FixExample(i, j);
    double entropy_sum = 0.0;
    for (const std::vector<double>& v : uncertain) {
      entropy_sum += Entropy(
          SsDcCount<DoubleSemiring, true>(scratch, v, kernel, k).per_label);
    }
    expected += entropy_sum / static_cast<double>(num_val);
  }
  return expected / static_cast<double>(m);
}

TEST(CleaningSessionTest, FastAndReferenceSelectionAgree) {
  const PreparedExperiment prepared = MakePrepared(13);
  NegativeEuclideanKernel kernel;
  CpCleanOptions options;
  options.k = 3;
  options.track_test_accuracy = false;
  CleaningSession session(&prepared.task, &kernel, options);
  const CertainPredictor predictor(&kernel, options.k);

  // Before every greedy step, the reference argmin over the current
  // working dataset (ties toward the smallest index) must be the example
  // the FastQ2 selection then cleans.
  int steps = 0;
  for (; steps < 4; ++steps) {
    const IncompleteDataset& working = session.working();
    std::vector<std::vector<double>> uncertain;
    for (const std::vector<double>& v : prepared.task.val_x) {
      if (!predictor.IsCertain(working, v)) uncertain.push_back(v);
    }
    if (uncertain.empty()) break;  // StepGreedy stops: all certain
    int chosen = -1;
    double best = std::numeric_limits<double>::infinity();
    for (int i = 0; i < working.num_examples(); ++i) {
      if (working.num_candidates(i) < 2) continue;  // clean already
      const double e = ReferenceExpectedEntropy(
          working, uncertain, prepared.task.val_x.size(), kernel, options.k,
          i);
      if (e < best) {
        best = e;
        chosen = i;
      }
    }
    EXPECT_EQ(session.StepGreedy(), chosen)
        << "fast and reference selection diverged at step " << steps;
  }
  EXPECT_GT(steps, 0);
}

TEST(CleaningSessionTest, RandomCleanIsReproduciblePerSeed) {
  const PreparedExperiment prepared = MakePrepared(15);
  NegativeEuclideanKernel kernel;
  CpCleanOptions options;
  options.k = 3;
  options.track_test_accuracy = false;
  CleaningSession session(&prepared.task, &kernel, options);
  Rng rng1(42), rng2(42);
  const CleaningRunResult a = session.RunRandomClean(&rng1);
  const CleaningRunResult b = session.RunRandomClean(&rng2);
  ASSERT_EQ(a.steps.size(), b.steps.size());
  for (size_t s = 0; s < a.steps.size(); ++s) {
    EXPECT_EQ(a.steps[s].cleaned_example, b.steps[s].cleaned_example);
  }
}

TEST(CleaningSessionTest, CpCleanNeedsNoMoreCleaningThanRandomOnAverage) {
  // Not a strict theorem, but holds comfortably on average; guards against
  // selection-logic regressions that make CPClean no better than random.
  int cp_total = 0, random_total = 0;
  NegativeEuclideanKernel kernel;
  for (uint64_t seed : {21, 23, 25}) {
    const PreparedExperiment prepared = MakePrepared(seed);
    CpCleanOptions options;
    options.k = 3;
    options.track_test_accuracy = false;
    CleaningSession session(&prepared.task, &kernel, options);
    cp_total += session.RunCpClean().examples_cleaned;
    Rng rng(seed);
    random_total += session.RunRandomClean(&rng).examples_cleaned;
  }
  EXPECT_LE(cp_total, random_total);
}

}  // namespace
}  // namespace cpclean
