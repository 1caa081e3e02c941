// FastSelectionScores keeps each (validation point, example) cell between
// cleaning steps and recomputes only the cells a cleaned example can reach
// (its best candidate at or above the cell's horizon). A carried score must
// equal, bit for bit, what a cold session computes from scratch at the same
// state — for every thread count and table bound — and the selection work
// counters must repeat exactly.

#include "cleaning/cp_clean.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "eval/experiment.h"
#include "knn/kernel.h"

namespace cpclean {
namespace {

PreparedExperiment MakePrepared(uint64_t seed) {
  ExperimentConfig config;
  config.dataset.name = "carry";
  config.dataset.synthetic.num_rows = 40 + 12 + 12;
  config.dataset.synthetic.num_numeric = 4;
  config.dataset.synthetic.num_categorical = 0;
  config.dataset.synthetic.noise_sigma = 0.3;
  config.dataset.synthetic.seed = seed;
  config.dataset.missing_rate = 0.25;
  config.dataset.val_size = 12;
  config.dataset.test_size = 12;
  config.k = 3;
  config.seed = seed;
  static NegativeEuclideanKernel kernel;
  return PrepareExperiment(config, kernel).value();
}

CpCleanOptions Options(int num_threads, size_t max_contrib_bytes) {
  CpCleanOptions options;
  options.k = 3;
  options.track_test_accuracy = false;
  options.num_threads = num_threads;
  options.max_contrib_bytes = max_contrib_bytes;
  return options;
}

uint64_t Bits(double x) {
  uint64_t bits;
  std::memcpy(&bits, &x, sizeof(bits));
  return bits;
}

// The session's not-yet-cleaned examples, ascending (its own list is in
// swap-and-pop order, so this also checks that a different order of the
// same examples reads the same cells).
std::vector<int> DirtyOf(const CleaningTask& task,
                         const CleaningSession& session) {
  std::vector<int> cleaned = session.Snapshot().cleaned_order;
  std::sort(cleaned.begin(), cleaned.end());
  std::vector<int> dirty;
  for (const int i : task.DirtyRows()) {
    if (!std::binary_search(cleaned.begin(), cleaned.end(), i)) {
      dirty.push_back(i);
    }
  }
  return dirty;
}

// Steps `options`' session to convergence; before every step compares its
// scores with a cold session restored to the same snapshot. Returns the
// first mismatch (empty when none) and the cleaning order in `order`.
std::string StepAgainstColdRestore(const CleaningTask& task,
                                   const CpCleanOptions& options,
                                   std::vector<int>* order) {
  NegativeEuclideanKernel kernel;
  CleaningSession stepping(&task, &kernel, options);
  stepping.FracValCertain();
  for (int step = 0;; ++step) {
    const std::vector<int> dirty = DirtyOf(task, stepping);
    const std::vector<double> got = stepping.FastSelectionScores(dirty);
    CleaningSession cold(&task, &kernel, Options(1, options.max_contrib_bytes));
    const Status restored = cold.Restore(stepping.Snapshot());
    if (!restored.ok()) return restored.ToString();
    const std::vector<double> want = cold.FastSelectionScores(dirty);
    if (got.size() != want.size()) return "size mismatch";
    for (size_t p = 0; p < want.size(); ++p) {
      if (Bits(got[p]) != Bits(want[p])) {
        return "step " + std::to_string(step) + ": example " +
               std::to_string(dirty[p]) + " scored " +
               std::to_string(got[p]) + ", cold " + std::to_string(want[p]);
      }
    }
    const int cleaned = stepping.StepGreedy();
    if (cleaned < 0) return "";
    order->push_back(cleaned);
  }
}

std::vector<int> ColdOrder(const CleaningTask& task) {
  NegativeEuclideanKernel kernel;
  CleaningSession session(&task, &kernel, Options(1, size_t{1}));
  const CleaningRunResult run = session.RunCpClean();
  std::vector<int> order;
  for (size_t s = 1; s < run.steps.size(); ++s) {
    order.push_back(run.steps[s].cleaned_example);
  }
  return order;
}

// Default bound (every row fits, cells carried) and 1 byte (one streamed
// row at a time, nothing carried).
constexpr size_t kBounds[] = {size_t{2} << 20, size_t{1}};

class SelectionCarryBoundTest : public ::testing::TestWithParam<size_t> {};

TEST_P(SelectionCarryBoundTest, EveryStepMatchesAColdRestore) {
  const size_t bound = GetParam();
  const PreparedExperiment prepared = MakePrepared(41);
  const std::vector<int> want_order = ColdOrder(prepared.task);
  ASSERT_GT(want_order.size(), 5u);
  for (const int threads : {1, 4}) {
    std::vector<int> order;
    EXPECT_EQ(StepAgainstColdRestore(prepared.task, Options(threads, bound),
                                     &order),
              "")
        << "threads " << threads;
    EXPECT_EQ(order, want_order) << "threads " << threads;
  }
}

INSTANTIATE_TEST_SUITE_P(Bounds, SelectionCarryBoundTest,
                         ::testing::ValuesIn(kBounds));

TEST(SelectionCarryTest, TwoSessionsOnTheGlobalPoolMatchColdRestores) {
  const PreparedExperiment a = MakePrepared(43);
  const PreparedExperiment b = MakePrepared(47);
  std::string error_a, error_b;
  std::vector<int> order_a, order_b;
  std::thread ta([&] {
    error_a = StepAgainstColdRestore(a.task, Options(0, size_t{2} << 20),
                                     &order_a);
  });
  std::thread tb([&] {
    error_b = StepAgainstColdRestore(b.task, Options(0, size_t{2} << 20),
                                     &order_b);
  });
  ta.join();
  tb.join();
  EXPECT_EQ(error_a, "");
  EXPECT_EQ(error_b, "");
  EXPECT_EQ(order_a, ColdOrder(a.task));
  EXPECT_EQ(order_b, ColdOrder(b.task));
}

TEST(SelectionCarryTest, ExamplesOutsideTheTableRebuildIt) {
  // A call naming an example the table has no column for drops the table;
  // the rebuilt one must still match a cold session.
  const PreparedExperiment prepared = MakePrepared(53);
  NegativeEuclideanKernel kernel;
  CleaningSession session(&prepared.task, &kernel,
                          Options(1, size_t{2} << 20));
  ASSERT_GE(session.StepGreedy(), 0);
  const std::vector<int> dirty = DirtyOf(prepared.task, session);
  const std::vector<int> half(dirty.begin(),
                              dirty.begin() + dirty.size() / 2);
  session.FastSelectionScores(half);
  ASSERT_GE(session.StepGreedy(), 0);
  const std::vector<int> now = DirtyOf(prepared.task, session);
  const std::vector<double> got = session.FastSelectionScores(now);
  CleaningSession cold(&prepared.task, &kernel, Options(1, size_t{1}));
  ASSERT_TRUE(cold.Restore(session.Snapshot()).ok());
  const std::vector<double> want = cold.FastSelectionScores(now);
  ASSERT_EQ(got.size(), want.size());
  for (size_t p = 0; p < want.size(); ++p) {
    EXPECT_EQ(Bits(got[p]), Bits(want[p])) << "example " << now[p];
  }
}

CleaningSession::SelectionCounters ConvergeCounters(const CleaningTask& task,
                                                    int threads,
                                                    size_t bound) {
  NegativeEuclideanKernel kernel;
  CleaningSession session(&task, &kernel, Options(threads, bound));
  session.RunCpClean();
  return session.selection_counters();
}

TEST(SelectionCarryTest, CountersRepeatExactly) {
  // The counters are cumulative; a second converge (RunCpClean resets
  // first) must add exactly the first one's work.
  const PreparedExperiment prepared = MakePrepared(41);
  NegativeEuclideanKernel kernel;
  CleaningSession session(&prepared.task, &kernel,
                          Options(4, size_t{2} << 20));
  session.RunCpClean();
  const CleaningSession::SelectionCounters first = session.selection_counters();
  session.RunCpClean();
  const CleaningSession::SelectionCounters& both = session.selection_counters();
  EXPECT_GT(first.cells_scored, 0u);
  EXPECT_EQ(both.cells_scored, 2 * first.cells_scored);
  EXPECT_EQ(both.cells_reused, 2 * first.cells_reused);
  EXPECT_EQ(both.cells_pruned, 2 * first.cells_pruned);
  EXPECT_EQ(both.q2.entries, 2 * first.q2.entries);
  EXPECT_EQ(both.q2.multiplies, 2 * first.q2.multiplies);
  EXPECT_EQ(both.q2.identity_skips, 2 * first.q2.identity_skips);
  EXPECT_EQ(both.q2.restore_writes, 2 * first.q2.restore_writes);
}

TEST(SelectionCarryTest, CountersMatchAcrossThreadsAndShowSavings) {
  // Every bound scores the same cells over a converge; carrying turns some
  // of them into reuses and saves their multiplies.
  const PreparedExperiment prepared = MakePrepared(41);
  std::vector<CleaningSession::SelectionCounters> serial;
  for (const size_t bound : kBounds) {
    serial.push_back(ConvergeCounters(prepared.task, 1, bound));
    const CleaningSession::SelectionCounters pooled =
        ConvergeCounters(prepared.task, 4, bound);
    EXPECT_EQ(pooled.cells_scored, serial.back().cells_scored) << bound;
    EXPECT_EQ(pooled.cells_reused, serial.back().cells_reused) << bound;
    EXPECT_EQ(pooled.cells_pruned, serial.back().cells_pruned) << bound;
    EXPECT_EQ(pooled.q2.entries, serial.back().q2.entries) << bound;
    EXPECT_EQ(pooled.q2.multiplies, serial.back().q2.multiplies) << bound;
    EXPECT_EQ(pooled.q2.identity_skips, serial.back().q2.identity_skips)
        << bound;
    EXPECT_EQ(pooled.q2.restore_writes, serial.back().q2.restore_writes)
        << bound;
  }
  const CleaningSession::SelectionCounters& carried = serial[0];
  const CleaningSession::SelectionCounters& streamed = serial[1];
  EXPECT_GT(carried.cells_reused, 0u);
  EXPECT_EQ(streamed.cells_reused, 0u);
  // The branch decision does not depend on the bound.
  EXPECT_EQ(carried.cells_pruned, streamed.cells_pruned);
  EXPECT_EQ(carried.cells_scored + carried.cells_reused,
            streamed.cells_scored);
  EXPECT_LT(carried.q2.multiplies, streamed.q2.multiplies);
}

}  // namespace
}  // namespace cpclean
