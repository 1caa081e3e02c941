#ifndef PERFBENCH_PROBES_H_
#define PERFBENCH_PROBES_H_

// Per-layer probes for traced runs. A probe re-issues one layer's public
// call on the state the workload just visited and times it from here, so
// the library itself carries no instrumentation. Probe spans sit beside
// the span of the call that caused them, not inside it: the selection
// probe before a step re-does the scoring that the step then does again.

#include <cstdint>
#include <vector>

#include "cleaning/cleaning_task.h"
#include "cleaning/cp_clean.h"
#include "core/certain_predictor.h"
#include "core/fast_q2.h"
#include "harness.h"
#include "knn/kernel.h"

namespace perfbench {

struct LayerSamples {
  std::vector<double> step_ms, selection_ms, refresh_ms, residual_ms;
  std::vector<double> score_us, q2_us, q1_us, rows_scored;
  double selection_pairs = 0.0;  // |dirty| x |uncertain val|, summed
};

/// Times kernel scoring (FastQ2::SetTestPoint), Q2 (Fractions) and Q1
/// (CertainPredictor::IsCertain) for `point` against `dataset`.
void ProbePoint(const cpclean::IncompleteDataset& dataset,
                const std::vector<double>& point,
                const cpclean::SimilarityKernel& kernel, int k,
                LayerSamples* layers);

/// Drives a CleaningSession step by step with the cleaning-layer probes
/// around each StepGreedy: selection scores on the pre-step state, the
/// step itself, and the certainty refresh of the still-uncertain
/// validation points afterwards.
class ProbedCleaner {
 public:
  ProbedCleaner(const cpclean::CleaningTask* task,
                const cpclean::SimilarityKernel* kernel,
                cpclean::CleaningSession* session, int k);

  /// One probed greedy step; returns the cleaned example (-1: done).
  int Step(LayerSamples* layers);

 private:
  const cpclean::CleaningTask* task_;
  const cpclean::SimilarityKernel* kernel_;
  cpclean::CleaningSession* session_;
  int k_;
  cpclean::CertainPredictor predictor_;
  std::vector<int> dirty_;
  std::vector<int> uncertain_;
};

/// Bytes of `dataset`'s candidate slab (every candidate's features).
inline uint64_t SlabBytes(const cpclean::IncompleteDataset& dataset) {
  return static_cast<uint64_t>(dataset.total_candidates()) *
         static_cast<uint64_t>(dataset.dim()) * sizeof(double);
}

/// Adds the cleaning.* per-layer metrics of `layers`.
void AddCleaningLayers(const LayerSamples& layers, std::vector<Metric>* out);

/// Adds knn.* and core.* per-layer metrics of `layers`.
void AddPointLayers(const LayerSamples& layers, std::vector<Metric>* out);

}  // namespace perfbench

#endif  // PERFBENCH_PROBES_H_
