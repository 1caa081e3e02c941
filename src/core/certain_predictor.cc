#include "core/certain_predictor.h"

#include "common/logging.h"
#include "core/mm.h"
#include "core/ss_dc.h"

namespace cpclean {

CertainPredictor::CertainPredictor(const SimilarityKernel* kernel, int k)
    : kernel_(kernel), k_(k) {
  CP_CHECK(kernel_ != nullptr);
  CP_CHECK_GE(k_, 1);
}

CheckResult CertainPredictor::Check(const IncompleteDataset& dataset,
                                    const std::vector<double>& t) const {
  if (dataset.num_labels() == 2) {
    return MmCheck(dataset, t, *kernel_, k_);
  }
  return SsCheck(dataset, t, *kernel_, k_);
}

std::optional<int> CertainPredictor::CertainLabel(
    const IncompleteDataset& dataset, const std::vector<double>& t) const {
  const int label = Check(dataset, t).CertainLabel();
  if (label < 0) return std::nullopt;
  return label;
}

bool CertainPredictor::IsCertain(const IncompleteDataset& dataset,
                                 const std::vector<double>& t) const {
  return Check(dataset, t).CertainLabel() >= 0;
}

}  // namespace cpclean
