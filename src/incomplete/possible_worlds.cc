#include "incomplete/possible_worlds.h"

#include "common/logging.h"

namespace cpclean {

PossibleWorldIterator::PossibleWorldIterator(const IncompleteDataset* dataset)
    : dataset_(dataset) {
  CP_CHECK(dataset_ != nullptr);
  Reset();
}

void PossibleWorldIterator::Reset() {
  choice_.assign(static_cast<size_t>(dataset_->num_examples()), 0);
  valid_ = dataset_->num_examples() > 0;
}

void PossibleWorldIterator::Next() {
  CP_CHECK(valid_);
  for (int i = 0; i < dataset_->num_examples(); ++i) {
    if (choice_[static_cast<size_t>(i)] + 1 < dataset_->num_candidates(i)) {
      ++choice_[static_cast<size_t>(i)];
      return;
    }
    choice_[static_cast<size_t>(i)] = 0;
  }
  valid_ = false;  // odometer wrapped: enumeration finished
}

std::vector<std::vector<double>> MaterializeWorld(
    const IncompleteDataset& dataset, const WorldChoice& choice) {
  CP_CHECK_EQ(static_cast<int>(choice.size()), dataset.num_examples());
  std::vector<std::vector<double>> features;
  features.reserve(choice.size());
  for (int i = 0; i < dataset.num_examples(); ++i) {
    const int j = choice[static_cast<size_t>(i)];
    CP_CHECK(j >= 0 && j < dataset.num_candidates(i));
    const double* row = dataset.candidate_ptr(i, j);
    features.emplace_back(row, row + dataset.dim());
  }
  return features;
}

std::vector<int> WorldLabels(const IncompleteDataset& dataset) {
  std::vector<int> labels;
  labels.reserve(static_cast<size_t>(dataset.num_examples()));
  for (int i = 0; i < dataset.num_examples(); ++i) {
    labels.push_back(dataset.label(i));
  }
  return labels;
}

}  // namespace cpclean
