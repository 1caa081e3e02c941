// The num_threads knob must never change results: FastSelectionScores,
// the greedy cleaning order, and every CleaningRunResult log are required
// to be bit-identical between the serial path (num_threads = 1) and any
// pooled configuration (the ISSUE's acceptance criterion).

#include "cleaning/cp_clean.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "cleaning/certify.h"
#include "eval/experiment.h"
#include "knn/kernel.h"

namespace cpclean {
namespace {

PreparedExperiment MakePrepared(uint64_t seed = 31) {
  ExperimentConfig config;
  config.dataset.name = "determinism";
  config.dataset.synthetic.num_rows = 48 + 16 + 16;
  config.dataset.synthetic.num_numeric = 4;
  config.dataset.synthetic.num_categorical = 0;
  config.dataset.synthetic.noise_sigma = 0.3;
  config.dataset.synthetic.seed = seed;
  config.dataset.missing_rate = 0.2;
  config.dataset.val_size = 16;
  config.dataset.test_size = 16;
  config.k = 3;
  config.seed = seed;
  static NegativeEuclideanKernel kernel;
  return PrepareExperiment(config, kernel).value();
}

CpCleanOptions BaseOptions(int num_threads) {
  CpCleanOptions options;
  options.k = 3;
  options.stop_when_all_certain = false;
  options.num_threads = num_threads;
  return options;
}

TEST(ParallelDeterminismTest, FastSelectionScoresBitMatchSerial) {
  const PreparedExperiment prepared = MakePrepared();
  NegativeEuclideanKernel kernel;
  CleaningSession serial(&prepared.task, &kernel, BaseOptions(1));
  CleaningSession pooled(&prepared.task, &kernel, BaseOptions(8));
  const std::vector<int> dirty = prepared.task.DirtyRows();
  ASSERT_FALSE(dirty.empty());

  const std::vector<double> want = serial.FastSelectionScores(dirty);
  const std::vector<double> got = pooled.FastSelectionScores(dirty);
  ASSERT_EQ(want.size(), got.size());
  for (size_t p = 0; p < want.size(); ++p) {
    EXPECT_EQ(want[p], got[p])  // bit-for-bit, not NEAR
        << "score diverged for dirty example " << dirty[p];
  }

  // Repeat on an unsorted dirty list (RunLoop swap-and-pops): scores must
  // follow the permutation exactly.
  std::vector<int> shuffled = dirty;
  std::rotate(shuffled.begin(), shuffled.begin() + shuffled.size() / 2,
              shuffled.end());
  const std::vector<double> want_rot = serial.FastSelectionScores(shuffled);
  const std::vector<double> got_rot = pooled.FastSelectionScores(shuffled);
  for (size_t p = 0; p < shuffled.size(); ++p) {
    EXPECT_EQ(want_rot[p], got_rot[p]);
  }
}

TEST(ParallelDeterminismTest, CleaningRunsBitMatchAcrossThreadCounts) {
  const PreparedExperiment prepared = MakePrepared(33);
  NegativeEuclideanKernel kernel;

  CleaningSession serial(&prepared.task, &kernel, BaseOptions(1));
  const CleaningRunResult want = serial.RunCpClean();

  for (const int threads : {2, 8}) {
    CleaningSession pooled(&prepared.task, &kernel, BaseOptions(threads));
    const CleaningRunResult got = pooled.RunCpClean();

    EXPECT_EQ(got.examples_cleaned, want.examples_cleaned);
    EXPECT_EQ(got.all_val_certain, want.all_val_certain);
    EXPECT_EQ(got.final_test_accuracy, want.final_test_accuracy);
    ASSERT_EQ(got.steps.size(), want.steps.size()) << threads << " threads";
    for (size_t s = 0; s < want.steps.size(); ++s) {
      EXPECT_EQ(got.steps[s].cleaned_example, want.steps[s].cleaned_example)
          << "cleaning order diverged at step " << s;
      EXPECT_EQ(got.steps[s].frac_val_certain, want.steps[s].frac_val_certain);
      EXPECT_EQ(got.steps[s].test_accuracy, want.steps[s].test_accuracy);
    }
  }
}

TEST(ParallelDeterminismTest, ContribBytesBoundNeverChangesScores) {
  // The streamed contribution buffer's byte bound only partitions the
  // validation sweep into blocks; the per-example reduction stays a left
  // fold in ascending validation order, so any bound — down to a single
  // row — must reproduce the default's scores bit-for-bit, serial or
  // pooled.
  const PreparedExperiment prepared = MakePrepared(39);
  NegativeEuclideanKernel kernel;
  const std::vector<int> dirty = prepared.task.DirtyRows();
  ASSERT_FALSE(dirty.empty());

  CleaningSession reference(&prepared.task, &kernel, BaseOptions(1));
  const std::vector<double> want = reference.FastSelectionScores(dirty);

  for (const size_t bound : {size_t{1}, size_t{512}, size_t{1} << 30}) {
    for (const int threads : {1, 4}) {
      CpCleanOptions options = BaseOptions(threads);
      options.max_contrib_bytes = bound;
      CleaningSession session(&prepared.task, &kernel, options);
      const std::vector<double> got = session.FastSelectionScores(dirty);
      ASSERT_EQ(got.size(), want.size());
      for (size_t p = 0; p < want.size(); ++p) {
        EXPECT_EQ(got[p], want[p])
            << "bound " << bound << " threads " << threads;
      }
    }
  }
}

TEST(ParallelDeterminismTest, DefaultThreadCountMatchesSerial) {
  // num_threads = 0 (hardware concurrency) is the production default; it
  // must match the serial trace too.
  const PreparedExperiment prepared = MakePrepared(35);
  NegativeEuclideanKernel kernel;
  CleaningSession serial(&prepared.task, &kernel, BaseOptions(1));
  CleaningSession pooled(&prepared.task, &kernel, BaseOptions(0));
  const CleaningRunResult want = serial.RunCpClean();
  const CleaningRunResult got = pooled.RunCpClean();
  ASSERT_EQ(got.steps.size(), want.steps.size());
  for (size_t s = 0; s < want.steps.size(); ++s) {
    EXPECT_EQ(got.steps[s].cleaned_example, want.steps[s].cleaned_example);
    EXPECT_EQ(got.steps[s].frac_val_certain, want.steps[s].frac_val_certain);
  }
}

TEST(ParallelDeterminismTest, StepGreedySequenceMatchesRunCpClean) {
  // The serving layer advances sessions one StepGreedy at a time; the
  // incremental path must clean exactly the tuples RunCpClean's loop
  // cleans, in the same order.
  const PreparedExperiment prepared = MakePrepared(41);
  NegativeEuclideanKernel kernel;

  CleaningSession batch(&prepared.task, &kernel, BaseOptions(1));
  const CleaningRunResult run = batch.RunCpClean();
  std::vector<int> want;
  for (const CleaningStepLog& log : run.steps) {
    if (log.cleaned_example >= 0) want.push_back(log.cleaned_example);
  }
  ASSERT_FALSE(want.empty());

  CleaningSession stepping(&prepared.task, &kernel, BaseOptions(1));
  std::vector<int> got;
  while (true) {
    const int cleaned = stepping.StepGreedy();
    if (cleaned < 0) break;
    got.push_back(cleaned);
  }
  EXPECT_EQ(got, want);
  EXPECT_EQ(stepping.NumCleaned(), run.examples_cleaned);
  EXPECT_EQ(stepping.NumDirtyRemaining(), 0);
}

TEST(ParallelDeterminismTest, CertifyCleansSameTuplesAcrossThreadCounts) {
  const PreparedExperiment prepared = MakePrepared(37);
  NegativeEuclideanKernel kernel;
  CertifyOptions serial_options;
  serial_options.k = 3;
  serial_options.num_threads = 1;
  CertifyOptions pooled_options = serial_options;
  pooled_options.num_threads = 8;

  int certified = 0;
  for (size_t v = 0; v < prepared.task.val_x.size() && v < 6; ++v) {
    const auto want = CertifyTestPoint(prepared.task, prepared.task.val_x[v],
                                       kernel, serial_options);
    const auto got = CertifyTestPoint(prepared.task, prepared.task.val_x[v],
                                      kernel, pooled_options);
    ASSERT_EQ(want.ok(), got.ok());
    if (!want.ok()) continue;
    EXPECT_EQ(got.value().certified, want.value().certified);
    EXPECT_EQ(got.value().certain_label, want.value().certain_label);
    EXPECT_EQ(got.value().cleaned, want.value().cleaned);
    if (want.value().certified) ++certified;
  }
  EXPECT_GT(certified, 0);
}

}  // namespace
}  // namespace cpclean
