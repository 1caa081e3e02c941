#include "core/fast_q2.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <functional>

#include "common/logging.h"
#include "core/similarity.h"
#include "core/tally_enum.h"
#include "knn/vote.h"

namespace cpclean {

FastQ2::FastQ2(const IncompleteDataset* dataset, int k, double epsilon)
    : dataset_(dataset), k_(k), epsilon_(epsilon) {
  CP_CHECK(dataset_ != nullptr);
  CP_CHECK_GE(k_, 1);
  CP_CHECK_LE(k_, kMaxK)
      << "FastQ2 supports k <= " << kMaxK
      << " (its boundary-polynomial scratch is compile-time sized); got k="
      << k_ << ". Raise FastQ2::kMaxK in core/fast_q2.h and recompile, or "
      << "use the SS-DC reference engine for this query.";
  width_ = k_ + 1;
  Rebind();
  // Precompute the valid label tallies and their winners once.
  EnumerateTallies(num_labels_, k_, [this](const std::vector<int>& gamma) {
    tallies_.push_back({gamma, ArgMaxLabel(gamma)});
  });
  result_.resize(static_cast<size_t>(num_labels_));
}

void FastQ2::Rebind() {
  bound_version_ = dataset_->version();
  num_labels_ = dataset_->num_labels();
  const int n = dataset_->num_examples();
  CP_CHECK_LE(k_, n);
  slot_of_.assign(static_cast<size_t>(n), -1);
  label_of_.assign(static_cast<size_t>(n), 0);
  std::vector<int> label_size(static_cast<size_t>(num_labels_), 0);
  for (int i = 0; i < n; ++i) {
    label_of_[static_cast<size_t>(i)] = dataset_->label(i);
    slot_of_[static_cast<size_t>(i)] =
        label_size[static_cast<size_t>(dataset_->label(i))]++;
  }
  tree_size_.assign(static_cast<size_t>(num_labels_), 1);
  nodes_.assign(static_cast<size_t>(num_labels_), {});
  dirty_.assign(static_cast<size_t>(num_labels_), {});
  dirty_mark_.assign(static_cast<size_t>(num_labels_), {});
  for (int l = 0; l < num_labels_; ++l) {
    int size = 1;
    while (size < std::max(label_size[static_cast<size_t>(l)], 1)) size <<= 1;
    tree_size_[static_cast<size_t>(l)] = size;
    nodes_[static_cast<size_t>(l)].assign(
        static_cast<size_t>(2 * size * width_), 0.0);
    dirty_mark_[static_cast<size_t>(l)].assign(static_cast<size_t>(size), 0);
  }
  InitTrees();
  above_.assign(static_cast<size_t>(n), 0);
  sweep_mark_.assign(static_cast<size_t>(n), 0);
  tuple_min_.assign(static_cast<size_t>(n), 0.0);
  tuple_max_.assign(static_cast<size_t>(n), 0.0);
  scan_.clear();
  sorted_end_ = 0;
}

void FastQ2::InitTrees() {
  // Every leaf (and padding slot) holds the constant polynomial 1: a tuple
  // with no candidate scanned yet is entirely "below" the boundary, which
  // contributes weight 1 at degree 0.
  for (int l = 0; l < num_labels_; ++l) {
    auto& buf = nodes_[static_cast<size_t>(l)];
    std::fill(buf.begin(), buf.end(), 0.0);
    const int size = tree_size_[static_cast<size_t>(l)];
    for (int node = 1; node < 2 * size; ++node) {
      buf[static_cast<size_t>(node * width_)] = 1.0;
    }
  }
}

namespace {

// Whether p[0..w) is the constant polynomial 1 = [1, 0, ..., 0].
bool IsIdentity(const double* p, int w) {
  if (p[0] != 1.0) return false;
  for (int c = 1; c < w; ++c) {
    if (p[c] != 0.0) return false;
  }
  return true;
}

// The leaf of a tuple with fraction `frac` of its candidates above the
// boundary: (1 - frac) + frac * x.
void WriteLeaf(double* leaf, double frac, int w) {
  leaf[0] = 1.0 - frac;
  leaf[1] = frac;
  std::fill(leaf + 2, leaf + w, 0.0);
}

}  // namespace

template <int W>
void FastQ2::Multiply(const double* a, const double* b, double* out) {
  const int w = W == 0 ? width_ : W;
  // An identity operand makes the product a copy of the other operand,
  // bit for bit: every coefficient is finite and non-negative (no -0.0),
  // so the loop below would only add x * 1.0 and +0.0 terms onto +0.0.
  if (IsIdentity(a, w)) {
    std::memcpy(out, b, sizeof(double) * static_cast<size_t>(w));
    ++counters_.identity_skips;
    return;
  }
  if (IsIdentity(b, w)) {
    if (out != a) {
      std::memcpy(out, a, sizeof(double) * static_cast<size_t>(w));
    }
    ++counters_.identity_skips;
    return;
  }
  ++counters_.multiplies;
  // Accumulate off to the side: `out` may alias `a` (the boundary fold).
  double acc[W == 0 ? kMaxK + 1 : W] = {};
  for (int i = 0; i < w; ++i) {
    if (a[i] == 0.0) continue;
    const int jmax = w - i;
    for (int j = 0; j < jmax; ++j) {
      acc[i + j] += a[i] * b[j];
    }
  }
  std::memcpy(out, acc, sizeof(double) * static_cast<size_t>(w));
}

template <int W>
void FastQ2::RestoreTouched() {
  // Between queries every node is the identity (InitTrees), so the restore
  // writes [1, 0, ...] up each touched leaf's path with no multiplies. The
  // walk stops at the first node that already reads as the identity: an
  // ancestor of a touched leaf not yet restored has a degree-0 coefficient
  // below 1 (the leaf's 1 - above/m < 1 times factors <= 1), so only an
  // earlier walk can have reset it — and that walk reset its ancestors too.
  const int w = W == 0 ? width_ : W;
  for (const int i : touched_) {
    above_[static_cast<size_t>(i)] = 0;
    const int label = label_of_[static_cast<size_t>(i)];
    double* nodes = nodes_[static_cast<size_t>(label)].data();
    for (int node = tree_size_[static_cast<size_t>(label)] +
                    slot_of_[static_cast<size_t>(i)];
         node >= 1; node >>= 1) {
      double* p = nodes + static_cast<size_t>(node * w);
      if (IsIdentity(p, w)) break;
      p[0] = 1.0;
      std::fill(p + 1, p + w, 0.0);
      ++counters_.restore_writes;
    }
  }
}

void FastQ2::SetTestPoint(const std::vector<double>& t,
                          const SimilarityKernel& kernel) {
  // Long-lived engines (one per serving session or worker slot) re-bind
  // lazily: any dataset mutation since the last binding — a cleaning step's
  // FixExample, an AddExample — bumps the version counter, and the next
  // test point picks up the new candidate shapes automatically.
  if (dataset_->version() != bound_version_) Rebind();
  const int n = dataset_->num_examples();
  // One batched sweep over the flat candidate slab; no per-candidate
  // virtual call, and no sort here — queries order the scan lazily.
  sims_.resize(static_cast<size_t>(dataset_->total_candidates()));
  SimilarityScores(*dataset_, t, kernel, sims_.data());
  scan_.clear();
  scan_.reserve(sims_.size());
  size_t pos = 0;
  for (int i = 0; i < n; ++i) {
    const int m = dataset_->num_candidates(i);
    double lo = 0.0, hi = 0.0;
    for (int j = 0; j < m; ++j) {
      const double s = sims_[pos++];
      if (j == 0 || s < lo) lo = s;
      if (j == 0 || s > hi) hi = s;
      scan_.push_back({s, i, j});
    }
    tuple_min_[static_cast<size_t>(i)] = lo;
    tuple_max_[static_cast<size_t>(i)] = hi;
  }
  sorted_end_ = 0;
}

void FastQ2::EnsureSorted(size_t idx) {
  // Geometrically growing partial sorts. The sorted prefix under the strict
  // (similarity, tuple, candidate) total order is unique, so the scan
  // order — and every downstream result — is independent of how many
  // extension steps it took to reach an index.
  while (idx >= sorted_end_) {
    size_t chunk = std::max<size_t>(64, sorted_end_);
    chunk = std::min(chunk, scan_.size() - sorted_end_);
    const auto first = scan_.begin() + static_cast<ptrdiff_t>(sorted_end_);
    std::partial_sort(first, first + static_cast<ptrdiff_t>(chunk),
                      scan_.end(), MoreSimilar);
    sorted_end_ += chunk;
  }
}

double FastQ2::TopKFloor() const {
  floor_scratch_ = tuple_min_;
  CP_CHECK_GE(static_cast<int>(floor_scratch_.size()), k_);
  std::nth_element(floor_scratch_.begin(), floor_scratch_.begin() + (k_ - 1),
                   floor_scratch_.end(), std::greater<double>());
  return floor_scratch_[static_cast<size_t>(k_ - 1)];
}

double FastQ2::RunQuery(int pin_tuple, int pin_cand) {
  // Width-specialized instantiations: the polynomial multiply loops fully
  // unroll for the common K, which matters because they run once per
  // scanned candidate. The dynamic fallback handles every other K.
  switch (width_) {
    case 2:
      return RunQueryImpl<2>(pin_tuple, pin_cand);  // k = 1
    case 3:
      return RunQueryImpl<3>(pin_tuple, pin_cand);  // k = 2
    case 4:
      return RunQueryImpl<4>(pin_tuple, pin_cand);  // k = 3
    case 6:
      return RunQueryImpl<6>(pin_tuple, pin_cand);  // k = 5
    case 8:
      return RunQueryImpl<8>(pin_tuple, pin_cand);  // k = 7
    default:
      return RunQueryImpl<0>(pin_tuple, pin_cand);
  }
}

template <int W>
void FastQ2::ProcessEntry(const ScoredCandidate& entry, bool pinned_here,
                          double* total) {
  const int w = W == 0 ? width_ : W;
  const int num_labels = num_labels_;
  const int i = entry.tuple;
  const int b = label_of_[static_cast<size_t>(i)];
  const int m = dataset_->num_candidates(i);
  ++counters_.entries;

  // Move this candidate into the "above" region for later boundaries.
  if (above_[static_cast<size_t>(i)] == 0) touched_.push_back(i);
  const int above = ++above_[static_cast<size_t>(i)];
  const double frac_above =
      pinned_here ? 1.0 : static_cast<double>(above) / static_cast<double>(m);

  // One leaf-to-root walk does two jobs. It folds each sibling into the
  // boundary support for this candidate (the product over this label's
  // other leaves: tuples scanned earlier are "above", the current tuple is
  // pinned to this value), and it recomputes each parent over the updated
  // leaf. The siblings are never on the path, so the boundary reads the
  // same nodes it would have read before the leaf update.
  double* nodes = nodes_[static_cast<size_t>(b)].data();
  int node = tree_size_[static_cast<size_t>(b)] +
             slot_of_[static_cast<size_t>(i)];
  WriteLeaf(nodes + static_cast<size_t>(node * w), frac_above, w);
  double boundary[kMaxK + 1];
  boundary[0] = 1.0;
  std::fill(boundary + 1, boundary + w, 0.0);
  for (; node > 1; node >>= 1) {
    Multiply<W>(boundary, nodes + static_cast<size_t>((node ^ 1) * w),
                boundary);
    const int parent = node >> 1;
    Multiply<W>(nodes + static_cast<size_t>(2 * parent * w),
                nodes + static_cast<size_t>((2 * parent + 1) * w),
                nodes + static_cast<size_t>(parent * w));
  }

  // Tally the boundary supports. Only the roots of the *other* labels are
  // read, and the walk above touched none of them.
  const double pin_weight = pinned_here ? 1.0 : 1.0 / static_cast<double>(m);
  for (const Tally& tally : tallies_) {
    const int gb = tally.gamma[static_cast<size_t>(b)];
    if (gb < 1) continue;
    double support = pin_weight * boundary[gb - 1];
    if (support == 0.0) continue;
    for (int l = 0; l < num_labels && support != 0.0; ++l) {
      if (l == b) continue;
      const auto& buf = nodes_[static_cast<size_t>(l)];
      support *=
          buf[static_cast<size_t>(w + tally.gamma[static_cast<size_t>(l)])];
    }
    result_[static_cast<size_t>(tally.winner)] += support;
    *total += support;
  }
}

template <int W>
double FastQ2::RunQueryImpl(int pin_tuple, int pin_cand) {
  CP_CHECK(!scan_.empty()) << "call SetTestPoint first";
  std::fill(result_.begin(), result_.end(), 0.0);
  touched_.clear();
  double total = 0.0;
  const double target = 1.0 - epsilon_;
  bool done = false;

  // Two-level loop: materialize a sorted block, then scan it with a tight
  // inner loop free of the sorting machinery (EnsureSorted would otherwise
  // pin every member load inside the hot loop).
  size_t idx = 0;
  while (idx < scan_.size() && !done) {
    EnsureSorted(idx);
    const size_t block_end = sorted_end_;
    for (; idx < block_end; ++idx) {
      const ScoredCandidate& entry = scan_[idx];
      if (pin_tuple == entry.tuple && entry.candidate != pin_cand) continue;
      ProcessEntry<W>(entry, /*pinned_here=*/pin_tuple == entry.tuple,
                      &total);
      if (total >= target) {
        done = true;
        break;
      }
    }
  }

  last_horizon_ = ReachedSimilarity(idx);
  if (capture_support_) {
    last_support_.assign(touched_.begin(), touched_.end());
    std::sort(last_support_.begin(), last_support_.end());
  }

  RestoreTouched<W>();
  return total;
}

const std::vector<double>& FastQ2::EntropyPinnedSweep(int i) {
  switch (width_) {
    case 2:
      SweepImpl<2>(i);
      break;
    case 3:
      SweepImpl<3>(i);
      break;
    case 4:
      SweepImpl<4>(i);
      break;
    case 6:
      SweepImpl<6>(i);
      break;
    case 8:
      SweepImpl<8>(i);
      break;
    default:
      SweepImpl<0>(i);
      break;
  }
  return sweep_out_;
}

template <int W>
void FastQ2::SweepImpl(int pin_tuple) {
  CP_CHECK(!scan_.empty()) << "call SetTestPoint first";
  const int m = dataset_->num_candidates(pin_tuple);
  sweep_out_.assign(static_cast<size_t>(m), 0.0);
  if (m == 0) return;
  std::fill(result_.begin(), result_.end(), 0.0);
  touched_.clear();
  double total = 0.0;
  const double target = 1.0 - epsilon_;
  bool done = false;
  bool at_pin = false;
  size_t idx = 0;

  // Shared prefix: every entry strictly more similar than tuple i's best
  // candidate. No tuple-i entry exists here, so a pinned run processes the
  // prefix exactly as the unpinned scan does — once for all candidates.
  while (idx < scan_.size() && !done && !at_pin) {
    EnsureSorted(idx);
    const size_t block_end = sorted_end_;
    for (; idx < block_end; ++idx) {
      const ScoredCandidate& entry = scan_[idx];
      if (entry.tuple == pin_tuple) {
        at_pin = true;
        break;
      }
      ProcessEntry<W>(entry, /*pinned_here=*/false, &total);
      if (total >= target) {
        done = true;
        break;
      }
    }
  }

  if (!at_pin) {
    // The scan terminated (mass target or exhaustion) before tuple i's
    // first entry: every pinned run stops at the same point with the same
    // masses, so all candidates share one entropy.
    const double entropy = ResultEntropy(total);
    std::fill(sweep_out_.begin(), sweep_out_.end(), entropy);
    last_horizon_ = ReachedSimilarity(idx);
  } else {
    // Checkpoint the engine at the prefix boundary, then replay only the
    // suffix per candidate and roll back in between (RollBack).
    sweep_result_.assign(result_.begin(), result_.end());
    const double prefix_total = total;
    const size_t prefix_touched = touched_.size();
    const size_t prefix_idx = idx;
    // Every suffix starts at the checkpoint, so the deepest suffix sets
    // the sweep's horizon.
    size_t deepest = prefix_idx;
    for (int j = 0; j < m; ++j) {
      sweep_log_.clear();
      double run_total = prefix_total;
      bool run_done = false;
      size_t run_idx = prefix_idx;
      while (run_idx < scan_.size() && !run_done) {
        EnsureSorted(run_idx);
        const size_t block_end = sorted_end_;
        for (; run_idx < block_end; ++run_idx) {
          const ScoredCandidate& entry = scan_[run_idx];
          if (entry.tuple == pin_tuple && entry.candidate != j) continue;
          sweep_log_.push_back(entry.tuple);
          ProcessEntry<W>(entry, /*pinned_here=*/entry.tuple == pin_tuple,
                          &run_total);
          if (run_total >= target) {
            run_done = true;
            break;
          }
        }
      }
      sweep_out_[static_cast<size_t>(j)] = ResultEntropy(run_total);
      deepest = std::max(deepest, run_idx);

      // The last suffix needs no rollback: the end-of-query restore below
      // resets its touched paths together with the prefix's.
      if (j + 1 == m) break;
      RollBack<W>();
      touched_.resize(prefix_touched);
      std::copy(sweep_result_.begin(), sweep_result_.end(), result_.begin());
    }
    last_horizon_ = ReachedSimilarity(deepest);
  }

  // Standard end-of-query restore of every touched leaf.
  RestoreTouched<W>();
}

template <int W>
void FastQ2::RollBack() {
  // Reverse the suffix's above_ increments, then write every
  // suffix-touched leaf back to its checkpoint fraction (above == 0 gives
  // the pristine (1, 0) leaf, which also covers the pinned tuple itself).
  const int w = W == 0 ? width_ : W;
  for (size_t t = sweep_log_.size(); t-- > 0;) {
    --above_[static_cast<size_t>(sweep_log_[t])];
  }
  for (const int tuple : sweep_log_) {
    if (sweep_mark_[static_cast<size_t>(tuple)] != 0) continue;
    sweep_mark_[static_cast<size_t>(tuple)] = 1;
    const int label = label_of_[static_cast<size_t>(tuple)];
    const int node = tree_size_[static_cast<size_t>(label)] +
                     slot_of_[static_cast<size_t>(tuple)];
    const double frac =
        static_cast<double>(above_[static_cast<size_t>(tuple)]) /
        static_cast<double>(dataset_->num_candidates(tuple));
    WriteLeaf(nodes_[static_cast<size_t>(label)].data() +
                  static_cast<size_t>(node * w),
              frac, w);
    ++counters_.restore_writes;
    auto& mark = dirty_mark_[static_cast<size_t>(label)];
    const int parent = node >> 1;
    if (parent >= 1 && mark[static_cast<size_t>(parent)] == 0) {
      mark[static_cast<size_t>(parent)] = 1;
      dirty_[static_cast<size_t>(label)].push_back(parent);
    }
  }
  for (const int tuple : sweep_log_) {
    sweep_mark_[static_cast<size_t>(tuple)] = 0;
  }

  // Recompute each dirty ancestor once, bottom-up. All leaves sit at one
  // depth, so each pass holds exactly one level and runs only after every
  // dirty child below it. A node recomputed from bit-identical children
  // reproduces its checkpoint coefficients exactly.
  for (int l = 0; l < num_labels_; ++l) {
    std::vector<int>& level = dirty_[static_cast<size_t>(l)];
    auto& mark = dirty_mark_[static_cast<size_t>(l)];
    double* nodes = nodes_[static_cast<size_t>(l)].data();
    while (!level.empty()) {
      dirty_next_.clear();
      for (const int node : level) {
        mark[static_cast<size_t>(node)] = 0;
        Multiply<W>(nodes + static_cast<size_t>(2 * node * w),
                    nodes + static_cast<size_t>((2 * node + 1) * w),
                    nodes + static_cast<size_t>(node * w));
        ++counters_.restore_writes;
        const int parent = node >> 1;
        if (parent >= 1 && mark[static_cast<size_t>(parent)] == 0) {
          mark[static_cast<size_t>(parent)] = 1;
          dirty_next_.push_back(parent);
        }
      }
      level.swap(dirty_next_);
    }
  }
}

std::vector<double> FastQ2::Run(int pin_tuple, int pin_cand) {
  const double total = RunQuery(pin_tuple, pin_cand);
  std::vector<double> fractions(result_.begin(), result_.end());
  if (total > 0.0) {
    for (double& f : fractions) f /= total;
  }
  return fractions;
}

double FastQ2::ResultEntropy(double total) const {
  if (total <= 0.0) return 0.0;
  double entropy = 0.0;
  for (const double mass : result_) {
    if (mass <= 0.0) continue;
    const double p = mass / total;
    entropy -= p * std::log(p);
  }
  return entropy;
}

}  // namespace cpclean
