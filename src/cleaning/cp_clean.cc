#include "cleaning/cp_clean.h"

#include <algorithm>
#include <limits>
#include <stdexcept>

#include "common/fault_injection.h"
#include "common/logging.h"
#include "common/string_util.h"
#include "core/certain_predictor.h"
#include "core/fast_q2.h"
#include "knn/knn_classifier.h"

namespace cpclean {

namespace {

// Streaming window for file-backed candidate scans.
constexpr size_t kStreamWindowBytes = size_t{1} << 20;

}  // namespace

CleaningSession::CleaningSession(const CleaningTask* task,
                                 const SimilarityKernel* kernel,
                                 const CpCleanOptions& options)
    : task_(task), kernel_(kernel), options_(options) {
  CP_CHECK(task_ != nullptr);
  CP_CHECK(kernel_ != nullptr);
  CP_CHECK_GE(options_.k, 1);
  if (options_.num_threads == 0) {
    pool_ = &GlobalThreadPool();
  } else {
    owned_pool_ = std::make_unique<ThreadPool>(options_.num_threads);
    pool_ = owned_pool_.get();
  }
  Reset();
}

Result<std::unique_ptr<CleaningSession>> CleaningSession::Create(
    const CleaningTask* task, const SimilarityKernel* kernel,
    const CpCleanOptions& options) {
  if (task == nullptr) return Status::InvalidArgument("task is null");
  if (kernel == nullptr) return Status::InvalidArgument("kernel is null");
  if (options.k < 1) {
    return Status::InvalidArgument(
        StrFormat("k must be >= 1, got %d", options.k));
  }
  if (options.k > FastQ2::kMaxK) {
    return Status::InvalidArgument(
        StrFormat("k = %d exceeds the FastQ2 engine cap of %d", options.k,
                  FastQ2::kMaxK));
  }
  if (options.k > task->incomplete.num_examples()) {
    return Status::InvalidArgument(
        StrFormat("k = %d exceeds the %d training examples", options.k,
                  task->incomplete.num_examples()));
  }
  return std::make_unique<CleaningSession>(task, kernel, options);
}

void CleaningSession::Reset() {
  working_ = task_->incomplete;
  world_ = task_->default_x;
  cleaned_.assign(static_cast<size_t>(working_.num_examples()), 0);
  val_certain_.assign(task_->val_x.size(), 0);
  num_val_certain_ = 0;
  num_cleaned_ = 0;
  val_certainty_fresh_ = false;
  // Rows that are already clean in the dirty table count as cleaned and
  // their world value is their (single) candidate.
  for (int i = 0; i < working_.num_examples(); ++i) {
    if (working_.num_candidates(i) == 1) {
      cleaned_[static_cast<size_t>(i)] = 1;
      const double* row = working_.candidate_ptr(i, 0);
      world_[static_cast<size_t>(i)].assign(row, row + working_.dim());
    }
  }
  dirty_.clear();
  for (int i = 0; i < working_.num_examples(); ++i) {
    if (!cleaned_[static_cast<size_t>(i)]) dirty_.push_back(i);
  }
  cleaned_order_.clear();
  audit_.clear();
  last_newly_certain_.clear();
  selection_ = SelectionTable{};
  // `working_ = task copy` above wiped any file backing the serving
  // layer configured; re-establish it.
  ApplyWorkingStorage();
}

void CleaningSession::ApplyWorkingStorage() {
  if (!mmap_scratch_dir_.empty()) {
    // Fallback to RAM on failure: the modes are bit-identical, and a
    // Restore mid-flight has no way to surface a scratch-dir error.
    const Status backed =
        working_.BackWithFile(mmap_scratch_dir_, kStreamWindowBytes);
    (void)backed;
  }
}

Status CleaningSession::ConfigureWorkingStorage(
    const std::string& mmap_scratch_dir) {
  mmap_scratch_dir_ = mmap_scratch_dir;
  if (mmap_scratch_dir_.empty()) return Status::OK();
  return working_.BackWithFile(mmap_scratch_dir_, kStreamWindowBytes);
}

Status CleaningSession::Restore(const CleaningSnapshot& snapshot) {
  Reset();
  if (snapshot.audit.size() > snapshot.cleaned_order.size()) {
    return Status::InvalidArgument(StrFormat(
        "snapshot audit covers %d steps but only %d were cleaned",
        static_cast<int>(snapshot.audit.size()),
        static_cast<int>(snapshot.cleaned_order.size())));
  }
  for (size_t s = 0; s < snapshot.audit.size(); ++s) {
    if (snapshot.audit[s].example != snapshot.cleaned_order[s]) {
      return Status::InvalidArgument(StrFormat(
          "audit step %d cleans example %d but the cleaning order says %d",
          static_cast<int>(s) + 1, snapshot.audit[s].example,
          snapshot.cleaned_order[s]));
    }
  }
  const auto take = [this](int i) -> Status {
    if (i < 0 || i >= working_.num_examples()) {
      return Status::InvalidArgument(StrFormat(
          "snapshot cleans example %d outside [0, %d)", i,
          working_.num_examples()));
    }
    if (cleaned_[static_cast<size_t>(i)]) {
      return Status::InvalidArgument(StrFormat(
          "snapshot cleans example %d twice (or it was born clean)", i));
    }
    const auto it = std::find(dirty_.begin(), dirty_.end(), i);
    CP_CHECK(it != dirty_.end());  // implied by !cleaned_[i]
    *it = dirty_.back();
    dirty_.pop_back();
    CleanExample(i);
    return Status::OK();
  };
  // Prefix covered by stored audit: replay the fixes and adopt the stored
  // records, then refresh once at the boundary. Recomputing from scratch
  // marks exactly the points the snapshotted run had marked: certainty is
  // monotone under cleaning (a refinement only removes possible worlds),
  // and the source session refreshed after its last step.
  const size_t prefix = snapshot.audit.size();
  for (size_t s = 0; s < prefix; ++s) {
    CP_RETURN_NOT_OK(take(snapshot.cleaned_order[s]));
  }
  audit_ = snapshot.audit;
  RefreshValCertainty();
  // Suffix without stored attribution (e.g. steps a cleaning log appended
  // after the base snapshot, or a pre-provenance snapshot): recompute the
  // per-step newly-certain sets. Bit-identical to the original run's
  // records, again by monotonicity of certainty under cleaning.
  for (size_t s = prefix; s < snapshot.cleaned_order.size(); ++s) {
    const int i = snapshot.cleaned_order[s];
    CP_RETURN_NOT_OK(take(i));
    RefreshValCertainty();
    RecordAudit(i);
  }
  return Status::OK();
}

double CleaningSession::RefreshValCertainty() {
  const CertainPredictor predictor(kernel_, options_.k);
  const int64_t num_val = static_cast<int64_t>(task_->val_x.size());
  // Each validation point is an independent Q1 check; workers write only
  // their own slot, the state update below stays serial.
  std::vector<uint8_t> newly_certain(task_->val_x.size(), 0);
  pool_->ParallelFor(num_val, [&](int64_t v, int) {
    if (val_certain_[static_cast<size_t>(v)]) return;  // monotone
    newly_certain[static_cast<size_t>(v)] =
        predictor.IsCertain(working_, task_->val_x[static_cast<size_t>(v)])
            ? 1
            : 0;
  });
  last_newly_certain_.clear();
  for (size_t v = 0; v < task_->val_x.size(); ++v) {
    if (newly_certain[v]) {
      val_certain_[v] = 1;
      ++num_val_certain_;
      last_newly_certain_.push_back(static_cast<int>(v));
    }
  }
  val_certainty_fresh_ = true;
  if (task_->val_x.empty()) return 1.0;
  return static_cast<double>(num_val_certain_) /
         static_cast<double>(task_->val_x.size());
}

double CleaningSession::FracValCertain() {
  if (!val_certainty_fresh_) return RefreshValCertainty();
  if (task_->val_x.empty()) return 1.0;
  return static_cast<double>(num_val_certain_) /
         static_cast<double>(task_->val_x.size());
}

double CleaningSession::CurrentTestAccuracy() const {
  return task_->AccuracyWith(world_, task_->test_x, task_->test_y, *kernel_,
                             options_.k);
}

namespace {

// A selection cell that must be recomputed before use. A real horizon of
// -infinity (a scan that reached such a similarity) reads as stale too,
// which only costs a recompute.
constexpr double kStale = -std::numeric_limits<double>::infinity();

}  // namespace

std::vector<double> CleaningSession::FastSelectionScores(
    const std::vector<int>& dirty) {
  // First compute-layer fault site. Unlike the I/O sites this one throws —
  // the compute path has no Status plumbing — so failure rules are for
  // library-level tests that catch; under a live server use sleep rules
  // only (like serve.exec).
  if (FaultHit("compute.selection_scores")) {
    throw std::runtime_error("injected fault: compute.selection_scores");
  }
  std::vector<double> score(dirty.size(), 0.0);
  std::vector<int> active;
  active.reserve(task_->val_x.size());
  for (size_t v = 0; v < task_->val_x.size(); ++v) {
    if (!val_certain_[v]) active.push_back(static_cast<int>(v));
  }
  if (active.empty() || dirty.empty()) return score;

  // One FastQ2 engine per worker (trees and scan are query-local state);
  // each active validation point fills its own row, and the reduction
  // replays additions in ascending validation order — so score is
  // bit-identical for every num_threads, including the serial pre-pool
  // behavior at num_threads = 1.
  const int workers = pool_->num_threads();
  std::vector<std::unique_ptr<FastQ2>> engines(static_cast<size_t>(workers));
  std::vector<SelectionCounters> tally(static_cast<size_t>(workers));
  const auto score_row = [&](int v, SelectionCell* cells, double* out,
                             int worker) {
    auto& engine = engines[static_cast<size_t>(worker)];
    if (!engine) {
      engine = std::make_unique<FastQ2>(&working_, options_.k);
    }
    ScoreSelectionRow(v, dirty, cells, out, engine.get(),
                      &tally[static_cast<size_t>(worker)]);
  };
  if (PrepareSelection(dirty, active)) {
    // Every active point has a table row that carries its cells across
    // calls.
    const SelectionTable& table = selection_;
    const size_t width = static_cast<size_t>(table.cols) + 1;
    const auto row_cells = [&](int v) {
      return selection_.cells.data() +
             static_cast<size_t>(table.row_of[static_cast<size_t>(v)]) * width;
    };
    pool_->ParallelFor(
        static_cast<int64_t>(active.size()), [&](int64_t b, int worker) {
          const int v = active[static_cast<size_t>(b)];
          score_row(v, row_cells(v), nullptr, worker);
        });
    for (const int v : active) {
      const SelectionCell* cells = row_cells(v);
      for (size_t p = 0; p < dirty.size(); ++p) {
        score[p] += cells[table.col_of[static_cast<size_t>(dirty[p])]].value;
      }
    }
  } else {
    // The rows do not all fit in options_.max_contrib_bytes: validation
    // points are streamed in ordered blocks of value-only rows sized to the
    // bound — O(block x |dirty|) memory instead of O(|active_val| x
    // |dirty|) — and nothing is carried. Per dirty example the additions
    // form a left fold in ascending validation order whatever the block
    // partition, so the bound — like the thread count — never changes a
    // score bit.
    const size_t row_bytes = dirty.size() * sizeof(double);
    const size_t block =
        std::min(active.size(),
                 std::max<size_t>(1, options_.max_contrib_bytes / row_bytes));
    std::vector<double> contrib(block * dirty.size());
    for (size_t base = 0; base < active.size(); base += block) {
      const size_t count = std::min(block, active.size() - base);
      pool_->ParallelFor(
          static_cast<int64_t>(count), [&](int64_t b, int worker) {
            score_row(active[base + static_cast<size_t>(b)], nullptr,
                      contrib.data() + static_cast<size_t>(b) * dirty.size(),
                      worker);
          });
      for (size_t b = 0; b < count; ++b) {
        const double* row = contrib.data() + b * dirty.size();
        for (size_t p = 0; p < dirty.size(); ++p) score[p] += row[p];
      }
    }
  }

  // Fold the per-worker counts once per call; the sums do not depend on
  // which worker scored which point.
  SelectionCounters& total = selection_counters_;
  for (const SelectionCounters& t : tally) {
    total.cells_scored += t.cells_scored;
    total.cells_reused += t.cells_reused;
    total.cells_pruned += t.cells_pruned;
  }
  for (const auto& engine : engines) {
    if (!engine) continue;
    const FastQ2::WorkCounters& c = engine->counters();
    total.q2.entries += c.entries;
    total.q2.multiplies += c.multiplies;
    total.q2.identity_skips += c.identity_skips;
    total.q2.restore_writes += c.restore_writes;
  }
  return score;
}

bool CleaningSession::PrepareSelection(const std::vector<int>& dirty,
                                       const std::vector<int>& active) {
  SelectionTable& table = selection_;
  if (!table.cells.empty()) {
    bool current = table.version == working_.version();
    for (size_t p = 0; current && p < dirty.size(); ++p) {
      current = table.col_of[static_cast<size_t>(dirty[p])] >= 0;
    }
    for (size_t a = 0; current && a < active.size(); ++a) {
      current = table.row_of[static_cast<size_t>(active[a])] >= 0;
    }
    if (current) return true;
    table = SelectionTable{};
  }
  // Carry only when every active point's row fits the bound.
  const size_t row_bytes = (dirty.size() + 1) * sizeof(SelectionCell);
  if (active.size() > options_.max_contrib_bytes / row_bytes) return false;
  table.version = working_.version();
  table.col_of.assign(static_cast<size_t>(working_.num_examples()), -1);
  for (const int i : dirty) {
    int& col = table.col_of[static_cast<size_t>(i)];
    if (col < 0) col = table.cols++;
  }
  table.points = active;
  table.row_of.assign(task_->val_x.size(), -1);
  for (size_t r = 0; r < active.size(); ++r) {
    table.row_of[static_cast<size_t>(active[r])] = static_cast<int>(r);
  }
  table.cells.assign(active.size() * (static_cast<size_t>(table.cols) + 1),
                     SelectionCell{0.0, kStale});
  return true;
}

void CleaningSession::ScoreSelectionRow(int v, const std::vector<int>& dirty,
                                        SelectionCell* cells, double* out,
                                        FastQ2* q2,
                                        SelectionCounters* counters) const {
  q2->SetTestPoint(task_->val_x[static_cast<size_t>(v)], *kernel_);
  const double floor = q2->TopKFloor();
  // A table row keeps its unpinned entropy in its last cell; a streamed
  // row computes it at most once per call.
  SelectionCell streamed_unpinned{0.0, kStale};
  SelectionCell& unpinned =
      cells != nullptr ? cells[selection_.cols] : streamed_unpinned;
  bool unpinned_live = cells != nullptr && unpinned.horizon != kStale;
  for (size_t p = 0; p < dirty.size(); ++p) {
    const int i = dirty[p];
    SelectionCell streamed{0.0, kStale};
    SelectionCell& cell =
        cells != nullptr ? cells[selection_.col_of[static_cast<size_t>(i)]]
                         : streamed;
    if (q2->MaxSimilarity(i) < floor) {
      // Tuple i can never enter this point's top-K in any world, so
      // pinning it leaves the label distribution unchanged. The floor only
      // rises under cleaning, so this branch is re-decided on every call.
      if (!unpinned_live) {
        unpinned = SelectionCell{q2->EntropyUnpinned(), q2->last_horizon()};
        unpinned_live = true;
      }
      cell = SelectionCell{unpinned.value, kStale};
      ++counters->cells_pruned;
    } else if (cell.horizon != kStale) {
      ++counters->cells_reused;
    } else {
      const int m = working_.num_candidates(i);
      // One sweep shares the boundary-scan prefix across all m candidates;
      // summing its entries in candidate order keeps the reduction
      // bit-identical to m separate EntropyPinned calls.
      const std::vector<double>& pinned = q2->EntropyPinnedSweep(i);
      double sum = 0.0;
      for (int j = 0; j < m; ++j) {
        sum += pinned[static_cast<size_t>(j)];
      }
      cell = SelectionCell{sum / static_cast<double>(m), q2->last_horizon()};
      ++counters->cells_scored;
    }
    if (out != nullptr) out[p] = cell.value;
  }
}

void CleaningSession::CleanExample(int i) {
  CP_CHECK(!cleaned_[static_cast<size_t>(i)]);
  SelectionTable& table = selection_;
  const bool carry =
      !table.cells.empty() && table.version == working_.version();
  if (carry) {
    // A cell stays live only while every candidate of i lies strictly below
    // its horizon: the cell's queries then never processed i, and after the
    // fix they process the same entries with i's leaf still the identity.
    // i's own column goes stale outright (its candidates change).
    const int m = working_.num_candidates(i);
    const int first = working_.flat_row(i, 0);
    const size_t width = static_cast<size_t>(table.cols) + 1;
    const int col = table.col_of[static_cast<size_t>(i)];
    std::vector<double> sims(static_cast<size_t>(m));
    for (size_t r = 0; r < table.points.size(); ++r) {
      const int v = table.points[r];
      if (val_certain_[static_cast<size_t>(v)]) continue;  // never scored again
      // The same per-row kernel arithmetic as FastQ2::SetTestPoint.
      kernel_->SimilarityBatch(
          working_.candidate_ptr(i, 0), working_.flat_sq_norms() + first, m,
          working_.dim(), task_->val_x[static_cast<size_t>(v)].data(),
          sims.data());
      const double reach = *std::max_element(sims.begin(), sims.end());
      SelectionCell* cells = table.cells.data() + r * width;
      for (size_t c = 0; c < width; ++c) {
        if (!(cells[c].horizon > reach)) cells[c].horizon = kStale;
      }
      if (col >= 0) cells[col].horizon = kStale;
    }
  } else {
    table = SelectionTable{};
  }
  const int true_j = task_->true_candidate[static_cast<size_t>(i)];
  working_.FixExample(i, true_j);
  if (carry) table.version = working_.version();
  const double* row = working_.candidate_ptr(i, 0);
  world_[static_cast<size_t>(i)].assign(row, row + working_.dim());
  cleaned_[static_cast<size_t>(i)] = 1;
  cleaned_order_.push_back(i);
  ++num_cleaned_;
  val_certainty_fresh_ = false;
}

int CleaningSession::SelectGreedyPos() {
  // Algorithm 3 lines 5-9: pick the example whose cleaning minimizes the
  // expected conditional entropy of the validation predictions. Ties break
  // toward the smallest example index, which keeps the choice independent
  // of dirty_'s ordering (it is unsorted after swap-and-pop removals).
  int chosen_pos = 0;
  double best = std::numeric_limits<double>::infinity();
  const std::vector<double> score = FastSelectionScores(dirty_);
  for (size_t p = 0; p < score.size(); ++p) {
    if (score[p] < best ||
        (score[p] == best &&
         dirty_[p] < dirty_[static_cast<size_t>(chosen_pos)])) {
      best = score[p];
      chosen_pos = static_cast<int>(p);
    }
  }
  return chosen_pos;
}

int CleaningSession::StepGreedy() {
  if (!val_certainty_fresh_) RefreshValCertainty();
  if (dirty_.empty()) return -1;
  if (options_.stop_when_all_certain &&
      num_val_certain_ == static_cast<int>(task_->val_x.size())) {
    return -1;
  }
  const int chosen_pos = SelectGreedyPos();
  const int chosen = dirty_[static_cast<size_t>(chosen_pos)];
  dirty_[static_cast<size_t>(chosen_pos)] = dirty_.back();
  dirty_.pop_back();
  CleanExample(chosen);
  RefreshValCertainty();
  RecordAudit(chosen);
  return chosen;
}

void CleaningSession::RecordAudit(int example) {
  CleaningAuditRecord record;
  record.step = num_cleaned_;
  record.example = example;
  record.version = working_.version();
  record.newly_certain = last_newly_certain_;
  audit_.push_back(std::move(record));
}

void CleaningSession::LogStep(CleaningRunResult* result, int step,
                              int cleaned_example) {
  CleaningStepLog log;
  log.step = step;
  log.cleaned_example = cleaned_example;
  log.frac_val_certain = RefreshValCertainty();
  if (cleaned_example >= 0) RecordAudit(cleaned_example);
  log.test_accuracy =
      options_.track_test_accuracy ? CurrentTestAccuracy() : 0.0;
  result->steps.push_back(log);
}

CleaningRunResult CleaningSession::RunLoop(bool greedy, Rng* rng) {
  Reset();
  CleaningRunResult result;
  LogStep(&result, 0, -1);

  int step = 0;
  while (!dirty_.empty()) {
    if (options_.stop_when_all_certain &&
        num_val_certain_ == static_cast<int>(task_->val_x.size())) {
      result.all_val_certain = true;
      break;
    }
    if (options_.max_cleaned >= 0 && step >= options_.max_cleaned) break;

    int chosen_pos = 0;
    if (greedy) {
      chosen_pos = SelectGreedyPos();
    } else {
      CP_CHECK(rng != nullptr);
      chosen_pos = static_cast<int>(rng->NextUint64(dirty_.size()));
    }
    const int chosen = dirty_[static_cast<size_t>(chosen_pos)];
    // Swap-and-pop: selection re-scores every remaining example each step,
    // so dirty_'s order is irrelevant (the greedy tie-break is by example
    // index, not position).
    dirty_[static_cast<size_t>(chosen_pos)] = dirty_.back();
    dirty_.pop_back();
    CleanExample(chosen);
    ++step;
    LogStep(&result, step, chosen);
  }
  if (!result.all_val_certain &&
      num_val_certain_ == static_cast<int>(task_->val_x.size())) {
    result.all_val_certain = true;
  }
  result.examples_cleaned = step;
  result.final_test_accuracy =
      options_.track_test_accuracy
          ? result.steps.back().test_accuracy
          : CurrentTestAccuracy();
  return result;
}

CleaningRunResult CleaningSession::RunCpClean() {
  return RunLoop(/*greedy=*/true, /*rng=*/nullptr);
}

CleaningRunResult CleaningSession::RunRandomClean(Rng* rng) {
  return RunLoop(/*greedy=*/false, rng);
}

}  // namespace cpclean
