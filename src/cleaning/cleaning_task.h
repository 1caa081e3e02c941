#ifndef CPCLEAN_CLEANING_CLEANING_TASK_H_
#define CPCLEAN_CLEANING_CLEANING_TASK_H_

#include <cstdint>
#include <string>
#include <vector>

#include "cleaning/repair_generator.h"
#include "common/result.h"
#include "data/encoder.h"
#include "data/table.h"
#include "datasets/paper_datasets.h"
#include "incomplete/incomplete_dataset.h"
#include "knn/kernel.h"

namespace cpclean {

/// Everything a "data cleaning for ML" experiment needs, bundled: the
/// relational views (dirty training set, held-back ground truth, complete
/// validation and test sets), the fitted encoders, the incomplete dataset
/// of encoded candidate repairs, and the simulated human oracle's answers.
///
/// Ground truth (`clean_train`) is used for two things only, mirroring the
/// paper's protocol: (1) the oracle answer for a cleaned tuple — the
/// candidate repair closest to the true value; (2) the "Ground Truth"
/// upper-bound accuracy.
struct CleaningTask {
  // Relational views (shared schema).
  Table dirty_train;
  Table clean_train;
  Table val;
  Table test;
  int label_col = -1;
  RepairOptions repair_options;

  // Encoding.
  FeatureEncoder encoder;
  LabelEncoder labels;

  // Candidate space.
  IncompleteDataset incomplete;  // encoded candidate sets, one per train row
  std::vector<std::vector<std::vector<Value>>> candidate_rows;
  std::vector<int> true_candidate;  // oracle answer per train row

  // Encoded fixed sets.
  std::vector<std::vector<double>> val_x, test_x, clean_train_x, default_x;
  std::vector<int> val_y, test_y, train_y;

  /// Train rows with more than one candidate repair.
  std::vector<int> DirtyRows() const { return incomplete.DirtyExamples(); }

  /// KNN accuracy on the encoded validation / test set when training on
  /// the given encoded feature matrix (labels = train_y).
  double AccuracyWith(const std::vector<std::vector<double>>& train_features,
                      const std::vector<std::vector<double>>& eval_x,
                      const std::vector<int>& eval_y,
                      const SimilarityKernel& kernel, int k) const;

  /// Encodes a completed relational training table (e.g., the output of an
  /// imputer) into feature vectors with the task's encoder.
  Result<std::vector<std::vector<double>>> EncodeCompletedTrain(
      const Table& completed) const;
};

/// Builds a task from the four tables. `label_name` selects the class
/// column. Candidate repairs are generated from `dirty_train` per
/// `repair_options`; the feature encoder is fit on the default-imputed
/// training table plus val and test so every candidate has an encoding.
Result<CleaningTask> BuildCleaningTask(
    const Table& dirty_train, const Table& clean_train, const Table& val,
    const Table& test, const std::string& label_name,
    const RepairOptions& repair_options = RepairOptions());

/// End-to-end experiment configuration shared by the Table 2 / Figure 9 /
/// Figure 10 harnesses and the serving layer's "paper"/"synthetic" task
/// sources.
struct ExperimentConfig {
  PaperDatasetSpec dataset;
  int k = 3;
  uint64_t seed = 1;
  RepairOptions repair_options;
  /// Worker threads for the CPClean inner loops (see
  /// CpCleanOptions::num_threads): 0 = hardware concurrency, 1 = serial.
  /// Results are bit-identical for every value.
  int num_threads = 0;
};

/// A dataset instantiated for experiments: generated, split, injected
/// with MNAR missing values, and packaged as a CleaningTask; plus the two
/// accuracy anchors of the paper's protocol.
struct PreparedExperiment {
  CleaningTask task;
  double ground_truth_test_accuracy = 0.0;
  double default_test_accuracy = 0.0;
  double observed_missing_rate = 0.0;
  int dirty_rows = 0;
};

/// Generates the synthetic table, splits train/val/test, measures feature
/// importance on the clean data, injects MNAR missing values into the
/// training partition only, and builds the CleaningTask.
Result<PreparedExperiment> PrepareExperiment(const ExperimentConfig& config,
                                             const SimilarityKernel& kernel);

}  // namespace cpclean

#endif  // CPCLEAN_CLEANING_CLEANING_TASK_H_
