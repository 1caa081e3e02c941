#ifndef CPCLEAN_INCOMPLETE_INCOMPLETE_DATASET_H_
#define CPCLEAN_INCOMPLETE_INCOMPLETE_DATASET_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/big_uint.h"
#include "common/mmap_file.h"
#include "common/result.h"

namespace cpclean {

/// One incomplete data example (paper Def. 1): a finite candidate set
/// C_i = {x_{i,1}, x_{i,2}, ...} of possible feature vectors plus a certain
/// class label y_i. A "clean" example has exactly one candidate.
struct IncompleteExample {
  std::vector<std::vector<double>> candidates;
  int label = 0;
};

/// One logged mutation of an incomplete dataset — the unit of the
/// append-only cleaning log. The only mutation a log carries is a fix:
/// example `example` collapsed to its candidate `candidate`. `seq` is the
/// dataset `version()` immediately after the fix, so a log replayed in
/// sequence order onto a base snapshot at version v applies exactly the
/// records with seq > v.
struct MutationRecord {
  uint64_t seq = 0;
  int example = -1;
  int candidate = -1;
};

/// An incomplete dataset D = {(C_i, y_i)} — the block tuple-independent
/// structure whose possible worlds (Def. 2) the CP queries range over.
///
/// Candidate vectors are pre-encoded dense features; candidate sets may
/// have different sizes. Labels are dense ids in [0, num_labels).
///
/// Storage: every candidate lives once, in a row-major contiguous slab
/// (`flat_data()`, one dim()-stride row per candidate, all rows of an
/// example adjacent) that feeds the batched similarity kernels, together
/// with a cached squared L2 norm per row. Beside the slab the dataset
/// keeps only a label and a candidate count per example. `example()` and
/// `candidate()` copy rows out of the slab for cold callers. `FixExample`
/// collapses in place — it copies the chosen row (and its norm) onto the
/// example's first row, and the rows past it are retired — so a cleaning
/// step never reshuffles the slab.
///
/// The slab has two backing modes. By default it is an in-RAM
/// `std::vector`. `BackWithFile` moves it into an unlinked mmap'd scratch
/// file (the norms, labels and counts stay in RAM), so large slabs can be
/// paged by the kernel instead of pinned; readers stream it through
/// `PrefetchFlatRows` windows. The two modes hold bit-identical doubles.
class IncompleteDataset {
 public:
  IncompleteDataset() = default;
  explicit IncompleteDataset(int num_labels) : num_labels_(num_labels) {}

  /// Copies materialize into RAM backing mode and start an empty journal at
  /// the source's version — a copy is a value snapshot of the candidate
  /// space (and its version), not of the persistence machinery.
  IncompleteDataset(const IncompleteDataset& other);
  IncompleteDataset& operator=(const IncompleteDataset& other);
  IncompleteDataset(IncompleteDataset&&) noexcept = default;
  IncompleteDataset& operator=(IncompleteDataset&&) noexcept = default;

  /// Appends an example. Fails when the candidate set is empty, a label is
  /// out of range, or feature dimensions are inconsistent.
  Status AddExample(const IncompleteExample& example);

  /// Convenience: appends a clean (single-candidate) example.
  Status AddCleanExample(std::vector<double> features, int label);

  int num_examples() const { return static_cast<int>(labels_.size()); }
  int num_labels() const { return num_labels_; }

  /// Feature dimensionality (0 while empty).
  int dim() const { return dim_; }

  /// Example `i` copied out of the slab (cold callers and tests).
  IncompleteExample example(int i) const;
  int label(int i) const;

  /// Candidate-set size |C_i|.
  int num_candidates(int i) const;

  /// Largest candidate-set size M over all examples (0 while empty).
  int max_candidates() const;

  /// Candidate (i, j) copied out of the slab; hot paths read
  /// `candidate_ptr` instead.
  std::vector<double> candidate(int i, int j) const;

  // --- Flat view -----------------------------------------------------------

  /// Base of the row-major candidate slab; row r starts at
  /// `flat_data() + r * dim()`. Rows of example `i` occupy flat rows
  /// `[flat_row(i, 0), flat_row(i, 0) + num_candidates(i))`. Invalidated by
  /// `AddExample`.
  const double* flat_data() const {
    return mapped_ ? static_cast<const double*>(mapped_->data())
                   : flat_.data();
  }

  /// Flat row index of candidate (i, j).
  int flat_row(int i, int j) const {
    return cand_start_[static_cast<size_t>(i)] + j;
  }

  /// Pointer to candidate (i, j)'s features (dim() doubles).
  const double* candidate_ptr(int i, int j) const {
    return flat_data() + static_cast<size_t>(flat_row(i, j)) *
                             static_cast<size_t>(dim_);
  }

  /// Cached squared L2 norms, one per flat row (aligned with flat_data()).
  const double* flat_sq_norms() const { return sq_norms_.data(); }

  /// Cached ||x_{i,j}||^2.
  double candidate_sq_norm(int i, int j) const {
    return sq_norms_[static_cast<size_t>(flat_row(i, j))];
  }

  /// Number of *active* candidate rows (sum of |C_i|).
  int total_candidates() const { return total_candidates_; }

  /// Monotone mutation counter: bumped by every `AddExample` and
  /// `FixExample`. Cached derived state (serving-layer result
  /// caches, bound query engines) compares versions to detect precisely
  /// when the candidate space changed. Copies carry the source's version
  /// forward (a copy of version v holds the same worlds as the original at
  /// v), and assignment adopts the assigned dataset's version.
  uint64_t version() const { return version_; }

  /// True when the slab has no retired rows — every flat row is an active
  /// candidate — so one batched kernel call can sweep the whole slab.
  bool flat_is_compact() const {
    return static_cast<size_t>(total_candidates_) *
               static_cast<size_t>(dim_) ==
           flat_doubles();
  }

  // --- File-backed slab ----------------------------------------------------

  /// Moves the flat slab into an unlinked mmap'd scratch file under
  /// `scratch_dir` (which must exist). No-op when already file-backed.
  /// Readers should stream the slab in `stream_window_bytes`-sized blocks
  /// with `PrefetchFlatRows` — results are bit-identical to RAM mode
  /// because the doubles are. On failure the dataset stays in RAM mode.
  Status BackWithFile(const std::string& scratch_dir,
                      size_t stream_window_bytes);

  bool file_backed() const { return mapped_ != nullptr; }

  /// Preferred streaming window for file-backed scans (0 = RAM mode).
  size_t stream_window_bytes() const { return stream_window_bytes_; }

  /// Advises the kernel to page flat rows [first_row, first_row + count)
  /// in ahead of use. No-op in RAM mode; best effort.
  void PrefetchFlatRows(int first_row, int count) const;

  // --- Mutation journal ----------------------------------------------------
  //
  // Every `FixExample` is recorded as a `MutationRecord`. The journal's
  // coverage starts at the version the dataset was built at (its last
  // `AddExample`), copied at, or set to by `OverrideVersionForReplay`;
  // `JournalSince` answers only for versions at or past it.

  /// True when the journal can reconstruct every mutation after `version`.
  bool JournalCovers(uint64_t version) const {
    return version >= journal_base_version_;
  }

  /// The records with seq > `version`, in sequence order. Call only when
  /// `JournalCovers(version)`.
  std::vector<MutationRecord> JournalSince(uint64_t version) const;

  /// Forces the version counter — used only when rehydrating a serialized
  /// dataset whose header carries the version it had when written, so log
  /// sequence numbers line up. Journal coverage restarts there.
  /// CP_CHECK-fails if the journal holds records.
  void OverrideVersionForReplay(uint64_t version);

  // -------------------------------------------------------------------------

  /// True when every candidate set is a singleton (a single possible world).
  bool IsComplete() const;

  /// Indices of examples with more than one candidate ("dirty" tuples).
  std::vector<int> DirtyExamples() const;

  /// Exact number of possible worlds: prod_i |C_i| (can be astronomical).
  BigUint NumPossibleWorlds() const;

  /// log2 of the number of possible worlds.
  double Log2NumPossibleWorlds() const;

  /// Collapses example `i` to its `j`-th candidate (a cleaning step: the
  /// human revealed the true value). Afterwards |C_i| == 1.
  void FixExample(int i, int j);

 private:
  /// Doubles currently stored in the flat slab (active + retired rows).
  size_t flat_doubles() const {
    return mapped_ ? mapped_doubles_ : flat_.size();
  }
  double* mutable_flat() {
    return mapped_ ? static_cast<double*>(mapped_->data()) : flat_.data();
  }
  /// CP_CHECK-fails unless 0 <= i < num_examples().
  void CheckExample(int i) const;
  /// Appends one candidate row to the end of the slab (growing the mapping
  /// in file-backed mode). CP_CHECK-fails on a grow failure; callers that
  /// can surface a Status should pre-grow via `EnsureSlabCapacity`.
  void AppendFlatRow(const std::vector<double>& features);
  /// Grows the file mapping to hold at least `doubles` (RAM mode: no-op —
  /// std::vector grows on demand).
  Status EnsureSlabCapacity(size_t doubles);

  int num_labels_ = 0;
  int dim_ = 0;
  // Per example: its label and its active candidate count |C_i|.
  std::vector<int> labels_;
  std::vector<int> num_cands_;

  // The slab. cand_start_[i] is example i's first flat row; its first
  // num_cands_[i] rows are active, the rest (after a fix) retired.
  // Exactly one of flat_ (RAM mode) and mapped_ (file mode,
  // mapped_doubles_ doubles long) backs the slab.
  std::vector<double> flat_;
  std::unique_ptr<MappedFile> mapped_;
  size_t mapped_doubles_ = 0;
  size_t stream_window_bytes_ = 0;
  std::vector<double> sq_norms_;
  std::vector<int> cand_start_;
  int total_candidates_ = 0;
  uint64_t version_ = 0;

  uint64_t journal_base_version_ = 0;
  std::vector<MutationRecord> journal_;
};

/// True when `a` and `b` describe bit-for-bit the same candidate space:
/// same shape (labels, dim, example count, candidate counts), same labels,
/// and exactly equal candidate doubles. Versions and flat-slab layout are
/// NOT compared — a rehydrated dataset that replayed the same mutations is
/// identical even if its retired rows differ.
bool BitIdentical(const IncompleteDataset& a, const IncompleteDataset& b);

}  // namespace cpclean

#endif  // CPCLEAN_INCOMPLETE_INCOMPLETE_DATASET_H_
