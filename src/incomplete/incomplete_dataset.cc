#include "incomplete/incomplete_dataset.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/logging.h"
#include "common/string_util.h"

namespace cpclean {

namespace {
double SquaredNorm(const std::vector<double>& v) {
  double sum = 0.0;
  for (const double x : v) sum += x * x;
  return sum;
}
}  // namespace

IncompleteDataset::IncompleteDataset(const IncompleteDataset& other)
    : num_labels_(other.num_labels_),
      dim_(other.dim_),
      labels_(other.labels_),
      num_cands_(other.num_cands_),
      flat_(other.flat_data(), other.flat_data() + other.flat_doubles()),
      sq_norms_(other.sq_norms_),
      cand_start_(other.cand_start_),
      total_candidates_(other.total_candidates_),
      version_(other.version_),
      journal_base_version_(other.version_) {}

IncompleteDataset& IncompleteDataset::operator=(
    const IncompleteDataset& other) {
  if (this == &other) return *this;
  IncompleteDataset copy(other);
  *this = std::move(copy);
  return *this;
}

Status IncompleteDataset::EnsureSlabCapacity(size_t doubles) {
  if (!mapped_) return Status::OK();  // std::vector grows on demand
  const size_t bytes = doubles * sizeof(double);
  if (bytes <= mapped_->size()) return Status::OK();
  // Grow geometrically so an AddExample stream does O(log n) remaps.
  size_t want = mapped_->size() < 4096 ? 4096 : mapped_->size();
  while (want < bytes) want *= 2;
  return mapped_->Resize(want);
}

void IncompleteDataset::AppendFlatRow(const std::vector<double>& features) {
  const size_t offset = flat_doubles();
  if (mapped_) {
    CP_CHECK(EnsureSlabCapacity(offset + features.size()).ok());
    std::copy(features.begin(), features.end(),
              static_cast<double*>(mapped_->data()) + offset);
    mapped_doubles_ = offset + features.size();
  } else {
    flat_.insert(flat_.end(), features.begin(), features.end());
  }
  sq_norms_.push_back(SquaredNorm(features));
}

Status IncompleteDataset::BackWithFile(const std::string& scratch_dir,
                                       size_t stream_window_bytes) {
  if (mapped_) {
    stream_window_bytes_ = stream_window_bytes;
    return Status::OK();
  }
  CP_ASSIGN_OR_RETURN(
      std::unique_ptr<MappedFile> mapped,
      MappedFile::CreateScratch(scratch_dir, flat_.size() * sizeof(double)));
  std::copy(flat_.begin(), flat_.end(),
            static_cast<double*>(mapped->data()));
  mapped_ = std::move(mapped);
  mapped_doubles_ = flat_.size();
  stream_window_bytes_ = stream_window_bytes == 0 ? 1 : stream_window_bytes;
  flat_.clear();
  flat_.shrink_to_fit();
  return Status::OK();
}

void IncompleteDataset::PrefetchFlatRows(int first_row, int count) const {
  if (!mapped_ || count <= 0) return;
  const size_t stride = static_cast<size_t>(dim_) * sizeof(double);
  mapped_->Prefetch(static_cast<size_t>(first_row) * stride,
                    static_cast<size_t>(count) * stride);
}

std::vector<MutationRecord> IncompleteDataset::JournalSince(
    uint64_t version) const {
  CP_CHECK(JournalCovers(version));
  std::vector<MutationRecord> out;
  for (const MutationRecord& rec : journal_) {
    if (rec.seq > version) out.push_back(rec);
  }
  return out;
}

void IncompleteDataset::OverrideVersionForReplay(uint64_t version) {
  CP_CHECK(journal_.empty());
  version_ = version;
  journal_base_version_ = version;
}

Status IncompleteDataset::AddExample(const IncompleteExample& example) {
  if (example.candidates.empty()) {
    return Status::InvalidArgument("candidate set must be non-empty");
  }
  if (example.label < 0 || example.label >= num_labels_) {
    return Status::InvalidArgument(
        StrFormat("label %d out of range [0, %d)", example.label, num_labels_));
  }
  const int d = static_cast<int>(example.candidates.front().size());
  for (const auto& c : example.candidates) {
    if (static_cast<int>(c.size()) != d) {
      return Status::InvalidArgument("inconsistent candidate dimensions");
    }
  }
  if (dim_ == 0 && num_examples() == 0) {
    dim_ = d;
  } else if (d != dim_) {
    return Status::InvalidArgument(StrFormat(
        "candidate dimension %d does not match dataset dimension %d", d, dim_));
  }
  // Pre-grow the file mapping so the appends below cannot fail mid-way.
  CP_RETURN_NOT_OK(EnsureSlabCapacity(
      flat_doubles() +
      example.candidates.size() * static_cast<size_t>(d)));
  cand_start_.push_back(static_cast<int>(sq_norms_.size()));
  for (const auto& c : example.candidates) {
    AppendFlatRow(c);
  }
  const int count = static_cast<int>(example.candidates.size());
  labels_.push_back(example.label);
  num_cands_.push_back(count);
  total_candidates_ += count;
  ++version_;
  // The journal records fixes only, so coverage restarts past the append.
  journal_.clear();
  journal_base_version_ = version_;
  return Status::OK();
}

Status IncompleteDataset::AddCleanExample(std::vector<double> features,
                                          int label) {
  IncompleteExample example;
  example.candidates.push_back(std::move(features));
  example.label = label;
  return AddExample(std::move(example));
}

void IncompleteDataset::CheckExample(int i) const {
  CP_CHECK_GE(i, 0);
  CP_CHECK_LT(i, num_examples());
}

IncompleteExample IncompleteDataset::example(int i) const {
  IncompleteExample out;
  out.label = label(i);
  for (int j = 0; j < num_candidates(i); ++j) {
    out.candidates.push_back(candidate(i, j));
  }
  return out;
}

int IncompleteDataset::label(int i) const {
  CheckExample(i);
  return labels_[static_cast<size_t>(i)];
}

int IncompleteDataset::num_candidates(int i) const {
  CheckExample(i);
  return num_cands_[static_cast<size_t>(i)];
}

int IncompleteDataset::max_candidates() const {
  return num_cands_.empty()
             ? 0
             : *std::max_element(num_cands_.begin(), num_cands_.end());
}

std::vector<double> IncompleteDataset::candidate(int i, int j) const {
  CP_CHECK_GE(j, 0);
  CP_CHECK_LT(j, num_candidates(i));
  const double* row = candidate_ptr(i, j);
  return std::vector<double>(row, row + dim_);
}

bool IncompleteDataset::IsComplete() const {
  for (const int count : num_cands_) {
    if (count != 1) return false;
  }
  return true;
}

std::vector<int> IncompleteDataset::DirtyExamples() const {
  std::vector<int> out;
  for (int i = 0; i < num_examples(); ++i) {
    if (num_candidates(i) > 1) out.push_back(i);
  }
  return out;
}

BigUint IncompleteDataset::NumPossibleWorlds() const {
  BigUint count(1);
  for (const int c : num_cands_) {
    count *= BigUint(static_cast<uint64_t>(c));
  }
  return count;
}

double IncompleteDataset::Log2NumPossibleWorlds() const {
  double total = 0.0;
  for (const int c : num_cands_) {
    total += std::log2(static_cast<double>(c));
  }
  return total;
}

void IncompleteDataset::FixExample(int i, int j) {
  CP_CHECK_GE(j, 0);
  CP_CHECK_LT(j, num_candidates(i));
  // In-place collapse: the example keeps its flat slot range; row j (and
  // its cached norm, the same bits) moves onto row 0, which alone stays
  // active. Rows past the first are retired, not reclaimed.
  const size_t row0 = static_cast<size_t>(flat_row(i, 0));
  const size_t chosen = static_cast<size_t>(flat_row(i, j));
  if (chosen != row0) {
    double* flat = mutable_flat();
    const size_t stride = static_cast<size_t>(dim_);
    std::copy(flat + chosen * stride, flat + (chosen + 1) * stride,
              flat + row0 * stride);
    sq_norms_[row0] = sq_norms_[chosen];
  }
  total_candidates_ -= num_cands_[static_cast<size_t>(i)] - 1;
  num_cands_[static_cast<size_t>(i)] = 1;
  ++version_;
  journal_.push_back(MutationRecord{version_, i, j});
}

bool BitIdentical(const IncompleteDataset& a, const IncompleteDataset& b) {
  if (a.num_labels() != b.num_labels() || a.dim() != b.dim() ||
      a.num_examples() != b.num_examples()) {
    return false;
  }
  for (int i = 0; i < a.num_examples(); ++i) {
    if (a.label(i) != b.label(i) ||
        a.num_candidates(i) != b.num_candidates(i)) {
      return false;
    }
    for (int j = 0; j < a.num_candidates(i); ++j) {
      // Exact double comparison on purpose: the serving layer's
      // snapshot/rehydrate contract is bit-identity, not tolerance.
      const double* row = a.candidate_ptr(i, j);
      if (!std::equal(row, row + a.dim(), b.candidate_ptr(i, j))) {
        return false;
      }
    }
  }
  return true;
}

}  // namespace cpclean
