// Quickstart: certain predictions over an incomplete dataset in ~40 lines.
//
// Builds a tiny incomplete training set (one tuple has three possible
// values), then asks the two CP queries of the paper:
//   Q1 — is the KNN prediction for a test point the same in *every*
//        possible world?
//   Q2 — what fraction of the possible worlds predicts each label?

#include <cstdio>

#include "common/stats.h"
#include "core/certain_predictor.h"
#include "core/fast_q2.h"
#include "incomplete/incomplete_dataset.h"
#include "knn/kernel.h"

int main() {
  using namespace cpclean;

  // Two certain tuples and one incomplete tuple (3 candidate repairs).
  // Labels: 0 = "no", 1 = "yes".
  IncompleteDataset train(/*num_labels=*/2);
  CP_CHECK(train.AddCleanExample({32.0}, 0).ok());
  CP_CHECK(train.AddCleanExample({29.0}, 1).ok());
  CP_CHECK(train.AddExample({{{1.0}, {2.0}, {30.0}}, 0}).ok());

  std::printf("possible worlds: %s\n",
              train.NumPossibleWorlds().ToString().c_str());

  NegativeEuclideanKernel kernel;
  CertainPredictor predictor(&kernel, /*k=*/1);  // Q1
  FastQ2 counter(&train, /*k=*/1);               // Q2

  for (double t : {29.0, 5.0}) {
    const std::vector<double> test = {t};
    const auto certain = predictor.CertainLabel(train, test);
    counter.SetTestPoint(test, kernel);
    const std::vector<double> probs = counter.Fractions();
    std::printf("t = %4.1f | ", t);
    if (certain.has_value()) {
      std::printf("certainly predicted label %d", *certain);
    } else {
      std::printf("NOT certain");
    }
    std::printf("  (world fractions: label0=%.3f label1=%.3f, entropy=%.3f)\n",
                probs[0], probs[1], Entropy(probs));
  }
  return 0;
}
