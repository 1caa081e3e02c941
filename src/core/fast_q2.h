#ifndef CPCLEAN_CORE_FAST_Q2_H_
#define CPCLEAN_CORE_FAST_Q2_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "incomplete/incomplete_dataset.h"
#include "knn/kernel.h"
#include "knn/ordering.h"

namespace cpclean {

/// Production Q2 evaluator for CPClean's inner loop.
///
/// Same mathematics as `SsDcCount<DoubleSemiring, true>` (validated against
/// it in tests), but engineered for the access pattern of Algorithm 3 —
/// thousands of Q2 calls against one test point where a single tuple is
/// "pinned" to one candidate:
///
///  * the kernel evaluations are paid once per test point (`SetTestPoint`)
///    through the batched kernel API over the dataset's flat candidate
///    slab — no per-candidate virtual call or allocation;
///  * the similarity order is materialized *lazily*: `SetTestPoint` only
///    scores, and queries sort the descending scan in geometrically
///    growing prefixes on demand. Truncated queries touch only the
///    most-similar sliver of the scan, so they never pay the full
///    O(NM log NM) sort;
///  * the scan runs in *descending* similarity order and stops as soon as
///    the collected world mass reaches 1 - epsilon. Supports over all
///    boundary candidates partition the worlds, and nearly all mass sits
///    at the most-similar candidates, so typically only O(K * M) of the
///    N*M scan entries are touched;
///  * per-label segment trees live in flat double buffers, so a query
///    allocates nothing. A multiply with an identity operand [1, 0, ...]
///    (every untouched subtree) is a bit-exact copy and is skipped; each
///    scanned entry walks its leaf-to-root path once, folding siblings into
///    its boundary support and recomputing parents in the same walk; and
///    the end-of-query restore writes the identity up the touched paths
///    with no multiplies. A query costs at most O(touched * K^2 log N);
///  * every query records its *horizon* (`last_horizon`): the similarity of
///    the deepest scan entry it reached. A tuple whose candidates all lie
///    strictly below the horizon was never processed, so its leaf stayed
///    the identity; collapsing such a tuple (`FixExample`, which keeps the
///    tree layout) leaves the query's answer bit-identical. Cleaning
///    selection reuses scores across steps on this rule.
///
/// K is capped at `kMaxK`: the boundary polynomial scratch is a fixed
/// kMaxK+1 coefficients so queries stay allocation-free. Construction
/// fails fast (CP_CHECK) for larger K — raise the constant and recompile
/// if a workload ever legitimately needs K > 16.
class FastQ2 {
 public:
  static constexpr int kMaxK = 16;

  /// Binds to `dataset` (borrowed; must outlive this object). Call
  /// `Rebind` after the dataset's candidate sets change shape — or simply
  /// call `SetTestPoint`, which re-binds automatically when the dataset's
  /// mutation version has moved since the last binding (so one engine can
  /// be reused across serving requests interleaved with cleaning steps).
  FastQ2(const IncompleteDataset* dataset, int k, double epsilon = 1e-9);

  /// Re-reads the dataset's structure (sizes, labels).
  void Rebind();

  /// Computes all candidate similarities against `t` (batched; the
  /// descending order is materialized lazily by queries). Re-binds first
  /// when the dataset has been mutated since the last Rebind/SetTestPoint.
  void SetTestPoint(const std::vector<double>& t,
                    const SimilarityKernel& kernel);

  /// Q2 as label fractions for the bound test point.
  std::vector<double> Fractions() { return Run(-1, -1); }

  /// Q2 fractions with tuple `i` collapsed to its candidate `j`
  /// (the "what if candidate j is the truth" query of Equation 4).
  std::vector<double> FractionsPinned(int i, int j) { return Run(i, j); }

  /// Shannon entropy (natural log) of the Q2 label distribution — the
  /// allocation-free variants of Entropy(Fractions()) /
  /// Entropy(FractionsPinned(i, j)) that the selection loop hammers.
  double EntropyUnpinned() { return ResultEntropy(RunQuery(-1, -1)); }
  double EntropyPinned(int i, int j) { return ResultEntropy(RunQuery(i, j)); }

  /// `EntropyPinned(i, j)` for every candidate j of tuple `i` in one sweep,
  /// bit-identical to m separate calls. The scan prefix strictly above
  /// tuple i's first entry in similarity order contains no tuple-i
  /// candidates, so every pinned run processes it identically: the sweep
  /// pays it once, checkpoints the engine there, and replays only the
  /// suffix per candidate (rolling the trees back between candidates).
  /// Returns a reference to an internal buffer of `num_candidates(i)`
  /// entries, valid until the next query on this engine.
  const std::vector<double>& EntropyPinnedSweep(int i);

  /// The horizon of the last query (`Fractions`, `FractionsPinned`, the
  /// entropy variants, or a whole `EntropyPinnedSweep`): the similarity of
  /// the deepest scan entry it reached — where it stopped at 1 - epsilon,
  /// or the scan's last entry when it ran out. Entries strictly less
  /// similar than the horizon took no part in the answer.
  double last_horizon() const { return last_horizon_; }

  /// Least / most similar candidate of tuple `i` for the bound test point.
  double MinSimilarity(int i) const { return tuple_min_[static_cast<size_t>(i)]; }
  double MaxSimilarity(int i) const { return tuple_max_[static_cast<size_t>(i)]; }

  /// The K-th largest per-tuple *minimum* similarity: any tuple whose
  /// maximum similarity is below this floor can never enter the top-K in
  /// any possible world, so pinning it cannot change the Q2 distribution.
  double TopKFloor() const;

  /// The dataset mutation version this engine is currently bound to (the
  /// engine-pool stamp: an idle engine whose bound version matches the
  /// dataset's current version can be reused without a Rebind).
  uint64_t bound_version() const { return bound_version_; }

  /// Provenance capture: when enabled, each unpinned/pinned query snapshots
  /// the tuples whose boundary supports carried world mass (the touched set
  /// the scan visits before reaching 1 - epsilon) into `last_support()`,
  /// sorted ascending. These are exactly the witnesses of the Q2 answer —
  /// every other tuple's contribution lies below the mass cutoff. Off by
  /// default so the selection hot loop never pays for the copy.
  void EnableSupportCapture(bool on) { capture_support_ = on; }
  const std::vector<int>& last_support() const { return last_support_; }

  /// Deterministic work counters, cumulative over this engine's lifetime
  /// (never reset by Rebind). Plain members: an engine serves one thread.
  struct WorkCounters {
    uint64_t entries = 0;         // scan entries processed
    uint64_t multiplies = 0;      // truncated polynomial multiplies run
    uint64_t identity_skips = 0;  // multiplies replaced by a copy
    uint64_t restore_writes = 0;  // nodes written by restores and rollbacks
  };
  const WorkCounters& counters() const { return counters_; }

 private:
  /// Runs the scan; fills result_ with per-label world masses and returns
  /// the total collected mass. Dispatches to a width-specialized
  /// instantiation (the polynomial loops fully unroll for the common K).
  double RunQuery(int pin_tuple, int pin_cand);
  /// W is the compile-time polynomial width (k + 1), or 0 for the dynamic
  /// fallback reading width_.
  template <int W>
  double RunQueryImpl(int pin_tuple, int pin_cand);
  /// The per-entry scan body shared by RunQueryImpl and SweepImpl: tallies
  /// the boundary supports into result_ / `total` and moves the entry's
  /// candidate into the "above" region.
  template <int W>
  void ProcessEntry(const ScoredCandidate& entry, bool pinned_here,
                    double* total);
  template <int W>
  void SweepImpl(int pin_tuple);
  /// out[0..w) = a * b truncated to w coefficients; `out` may alias `a`.
  /// Copies instead of multiplying when either operand is the identity.
  template <int W>
  void Multiply(const double* a, const double* b, double* out);
  /// Resets every touched tuple's above_ count and writes the identity up
  /// its leaf-to-root path (see the class comment).
  template <int W>
  void RestoreTouched();
  /// SweepImpl's rollback to the checkpoint after one candidate's suffix:
  /// rewrites the suffix-touched leaves, then recomputes each dirty
  /// ancestor once, level by level.
  template <int W>
  void RollBack();
  std::vector<double> Run(int pin_tuple, int pin_cand);
  /// Entropy of result_ masses given their total (mirrors common Entropy).
  double ResultEntropy(double total) const;
  /// Similarity of scan entry `idx`, or of the last entry when a scan ran
  /// out (idx == size): the horizon of a query that ended at `idx`.
  double ReachedSimilarity(size_t idx) const {
    return scan_[std::min(idx, scan_.size() - 1)].similarity;
  }
  /// Extends the sorted descending prefix of scan_ to cover `idx`.
  void EnsureSorted(size_t idx);
  void InitTrees();

  const IncompleteDataset* dataset_;
  int k_;
  double epsilon_;
  int num_labels_ = 0;
  int width_ = 0;  // k_ + 1 coefficients per node
  uint64_t bound_version_ = 0;  // dataset_->version() at the last Rebind

  std::vector<int> slot_of_;
  std::vector<int> label_of_;
  std::vector<int> tree_size_;              // per label, power of two
  std::vector<std::vector<double>> nodes_;  // per label, 2*size*width coeffs

  std::vector<ScoredCandidate> scan_;  // [0, sorted_end_) sorted descending
  size_t sorted_end_ = 0;
  std::vector<double> tuple_min_, tuple_max_;
  std::vector<int> above_;

  // Valid tally vectors with their precomputed winner label.
  struct Tally {
    std::vector<int> gamma;
    int winner;
  };
  std::vector<Tally> tallies_;

  // Scratch so queries allocate nothing.
  std::vector<double> sims_;        // batched kernel output
  mutable std::vector<double> floor_scratch_;
  std::vector<int> touched_;
  std::vector<double> result_;
  double last_horizon_ = 0.0;
  bool capture_support_ = false;
  std::vector<int> last_support_;

  // EntropyPinnedSweep scratch: per-candidate entropies, the suffix replay
  // log (one tuple id per processed entry), dedup marks for the leaf
  // rollback, the checkpointed per-label masses, and the rollback's
  // per-label dirty-node level lists with their dedup marks (indexed by
  // internal node).
  std::vector<double> sweep_out_;
  std::vector<int> sweep_log_;
  std::vector<uint8_t> sweep_mark_;
  std::vector<double> sweep_result_;
  std::vector<std::vector<int>> dirty_;
  std::vector<int> dirty_next_;
  std::vector<std::vector<uint8_t>> dirty_mark_;

  WorkCounters counters_;
};

}  // namespace cpclean

#endif  // CPCLEAN_CORE_FAST_Q2_H_
