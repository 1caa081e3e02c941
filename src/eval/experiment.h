#ifndef CPCLEAN_EVAL_EXPERIMENT_H_
#define CPCLEAN_EVAL_EXPERIMENT_H_

#include <string>
#include <vector>

// ExperimentConfig, PreparedExperiment and PrepareExperiment — the task
// preparation every harness below starts from — live beside
// BuildCleaningTask, so the serving layer can build tasks without linking
// the experiment runners.
#include "cleaning/cleaning_task.h"
#include "cleaning/cp_clean.h"
#include "common/result.h"
#include "knn/kernel.h"

namespace cpclean {

/// One row of the paper's Table 2.
struct Table2Row {
  std::string dataset;
  double ground_truth_accuracy = 0.0;
  double default_accuracy = 0.0;
  double boost_clean_gap = 0.0;
  double holo_clean_gap = 0.0;
  double cp_clean_gap = 0.0;
  double cp_clean_examples_cleaned = 0.0;  // fraction of train rows
  double cp_clean_gap_at_20pct = 0.0;      // early-termination column
};

/// Runs GroundTruth / Default / BoostClean / HoloClean / CPClean on one
/// prepared experiment and fills a Table 2 row.
Result<Table2Row> RunTable2Row(const ExperimentConfig& config,
                               const SimilarityKernel& kernel);

/// The Figure 9 series for one dataset: CPClean's and RandomClean's
/// cleaning curves (fraction cleaned vs. fraction CP'ed / gap closed).
struct CleaningCurves {
  std::string dataset;
  CleaningRunResult cp_clean;
  /// Point-wise average over `random_repeats` RandomClean runs, truncated
  /// to the shortest run.
  std::vector<CleaningStepLog> random_clean_mean;
  double ground_truth_accuracy = 0.0;
  double default_accuracy = 0.0;
  int total_dirty = 0;
};

Result<CleaningCurves> RunCleaningCurves(const ExperimentConfig& config,
                                         const SimilarityKernel& kernel,
                                         int random_repeats = 3);

}  // namespace cpclean

#endif  // CPCLEAN_EVAL_EXPERIMENT_H_
