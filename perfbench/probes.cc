#include "probes.h"

#include <algorithm>
#include <utility>

#include "workloads.h"

namespace perfbench {

void ProbePoint(const cpclean::IncompleteDataset& dataset,
                const std::vector<double>& point,
                const cpclean::SimilarityKernel& kernel, int k,
                LayerSamples* layers) {
  cpclean::FastQ2 engine(&dataset, k);
  Clock::time_point t = Clock::now();
  engine.SetTestPoint(point, kernel);
  layers->score_us.push_back(MsSince(t) * 1e3);
  layers->rows_scored.push_back(dataset.total_candidates());
  t = Clock::now();
  engine.Fractions();
  layers->q2_us.push_back(MsSince(t) * 1e3);
  const cpclean::CertainPredictor predictor(&kernel, k);
  t = Clock::now();
  predictor.IsCertain(dataset, point);
  layers->q1_us.push_back(MsSince(t) * 1e3);
}

ProbedCleaner::ProbedCleaner(const cpclean::CleaningTask* task,
                             const cpclean::SimilarityKernel* kernel,
                             cpclean::CleaningSession* session, int k)
    : task_(task),
      kernel_(kernel),
      session_(session),
      k_(k),
      predictor_(kernel, k) {
  // The session's own dirty set and certainty flags are private; rebuild
  // them from the public state so the probes see the same work.
  std::vector<int> cleaned = session->Snapshot().cleaned_order;
  std::sort(cleaned.begin(), cleaned.end());
  for (const int i : task->DirtyRows()) {
    if (!std::binary_search(cleaned.begin(), cleaned.end(), i)) {
      dirty_.push_back(i);
    }
  }
  for (int v = 0; v < static_cast<int>(task->val_x.size()); ++v) {
    if (!predictor_.IsCertain(session->working(), task->val_x[v])) {
      uncertain_.push_back(v);
    }
  }
}

int ProbedCleaner::Step(LayerSamples* layers) {
  double selection = 0.0;
  if (!dirty_.empty() && !uncertain_.empty()) {
    const Clock::time_point t = Clock::now();
    session_->FastSelectionScores(dirty_);
    selection = MsSince(t);
    layers->selection_ms.push_back(selection);
    layers->selection_pairs +=
        static_cast<double>(dirty_.size() * uncertain_.size());
  }
  const Clock::time_point t = Clock::now();
  const int example = session_->StepGreedy();
  const double step = MsSince(t);
  if (example < 0) return example;
  layers->step_ms.push_back(step);
  dirty_.erase(std::remove(dirty_.begin(), dirty_.end(), example),
               dirty_.end());

  const Clock::time_point r = Clock::now();
  std::vector<int> still;
  for (const int v : uncertain_) {
    if (!predictor_.IsCertain(session_->working(), task_->val_x[v])) {
      still.push_back(v);
    }
  }
  const double refresh = MsSince(r);
  layers->refresh_ms.push_back(refresh);
  layers->residual_ms.push_back(step - selection - refresh);
  uncertain_ = std::move(still);
  if (!uncertain_.empty()) {
    ProbePoint(session_->working(), task_->val_x[uncertain_.front()],
               *kernel_, k_, layers);
  }
  return example;
}

void AddCleaningLayers(const LayerSamples& layers, std::vector<Metric>* out) {
  AddMetric(out, "cleaning.step_ms", Median(layers.step_ms));
  AddMetric(out, "cleaning.selection_ms", Median(layers.selection_ms));
  AddMetric(out, "cleaning.selection_pairs", layers.selection_pairs);
  AddMetric(out, "cleaning.refresh_ms", Median(layers.refresh_ms));
  AddMetric(out, "cleaning.step_residual_ms", Median(layers.residual_ms));
}

void AddPointLayers(const LayerSamples& layers, std::vector<Metric>* out) {
  AddMetric(out, "knn.score_us", Median(layers.score_us));
  AddMetric(out, "knn.rows_scored", Median(layers.rows_scored));
  AddMetric(out, "core.q2_us", Median(layers.q2_us));
  AddMetric(out, "core.q1_us", Median(layers.q1_us));
}

}  // namespace perfbench
