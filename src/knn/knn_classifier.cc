#include "knn/knn_classifier.h"

#include "common/logging.h"
#include "knn/top_k.h"
#include "knn/vote.h"

namespace cpclean {

KnnClassifier::KnnClassifier(std::vector<std::vector<double>> features,
                             std::vector<int> labels, int num_labels, int k,
                             const SimilarityKernel* kernel)
    : features_(std::move(features)),
      labels_(std::move(labels)),
      num_labels_(num_labels),
      k_(k),
      kernel_(kernel) {
  CP_CHECK(kernel_ != nullptr);
  CP_CHECK_EQ(features_.size(), labels_.size());
  CP_CHECK_GT(num_labels_, 0);
  CP_CHECK_GE(k_, 1);
  CP_CHECK_LE(static_cast<size_t>(k_), features_.size());
  for (int l : labels_) {
    CP_CHECK_GE(l, 0);
    CP_CHECK_LT(l, num_labels_);
  }
  dim_ = static_cast<int>(features_.front().size());
  flat_.reserve(features_.size() * static_cast<size_t>(dim_));
  sq_norms_.reserve(features_.size());
  for (const auto& row : features_) {
    CP_CHECK_EQ(static_cast<int>(row.size()), dim_);
    double sq = 0.0;
    for (const double v : row) sq += v * v;
    flat_.insert(flat_.end(), row.begin(), row.end());
    sq_norms_.push_back(sq);
  }
}

std::vector<ScoredCandidate> KnnClassifier::Score(
    const std::vector<double>& t) const {
  CP_CHECK_EQ(static_cast<int>(t.size()), dim_);
  const int n = num_examples();
  std::vector<double> sims(static_cast<size_t>(n));
  kernel_->SimilarityBatch(flat_.data(), sq_norms_.data(), n, dim_, t.data(),
                           sims.data());
  std::vector<ScoredCandidate> scored;
  scored.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    scored.push_back({sims[static_cast<size_t>(i)], i, 0});
  }
  return scored;
}

std::vector<int> KnnClassifier::Neighbors(const std::vector<double>& t) const {
  return SelectTopK(Score(t), k_);
}

std::vector<int> KnnClassifier::NeighborTally(
    const std::vector<double>& t) const {
  std::vector<int> neighbor_labels;
  for (int idx : Neighbors(t)) {
    neighbor_labels.push_back(labels_[static_cast<size_t>(idx)]);
  }
  return TallyLabels(neighbor_labels, num_labels_);
}

int KnnClassifier::Predict(const std::vector<double>& t) const {
  return ArgMaxLabel(NeighborTally(t));
}

double KnnClassifier::Accuracy(const std::vector<std::vector<double>>& tests,
                               const std::vector<int>& expected) const {
  CP_CHECK_EQ(tests.size(), expected.size());
  if (tests.empty()) return 0.0;
  int correct = 0;
  for (size_t i = 0; i < tests.size(); ++i) {
    if (Predict(tests[i]) == expected[i]) ++correct;
  }
  return static_cast<double>(correct) / static_cast<double>(tests.size());
}

}  // namespace cpclean
