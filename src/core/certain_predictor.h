#ifndef CPCLEAN_CORE_CERTAIN_PREDICTOR_H_
#define CPCLEAN_CORE_CERTAIN_PREDICTOR_H_

#include <optional>
#include <vector>

#include "core/cp_queries.h"
#include "incomplete/incomplete_dataset.h"
#include "knn/kernel.h"

namespace cpclean {

/// Facade over the Q1 (checking) engines: given a kernel and K, is a KNN
/// classifier's prediction over an incomplete dataset the same in every
/// possible world? MM answers binary tasks and Boolean-semiring SS-DC
/// multi-class ones.
///
/// Q2 (counting: the fraction of possible worlds predicting each label)
/// has one production engine, `FastQ2` (core/fast_q2.h); the other Q2
/// engines (core/ss1.h, core/ss_dc.h, core/brute_force.h) are oracles.
class CertainPredictor {
 public:
  /// `kernel` is borrowed and must outlive the predictor; `k >= 1`.
  CertainPredictor(const SimilarityKernel* kernel, int k);

  int k() const { return k_; }
  const SimilarityKernel& kernel() const { return *kernel_; }

  /// Q1 for every label.
  CheckResult Check(const IncompleteDataset& dataset,
                    const std::vector<double>& t) const;

  /// The certainly-predicted label, or nullopt when worlds disagree.
  std::optional<int> CertainLabel(const IncompleteDataset& dataset,
                                  const std::vector<double>& t) const;

  /// True iff the test point can be CP'ed.
  bool IsCertain(const IncompleteDataset& dataset,
                 const std::vector<double>& t) const;

 private:
  const SimilarityKernel* kernel_;
  int k_;
};

}  // namespace cpclean

#endif  // CPCLEAN_CORE_CERTAIN_PREDICTOR_H_
