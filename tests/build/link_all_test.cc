// Build-substrate smoke test: links every layer library into one binary and
// touches one .cc-defined symbol per layer, so underlinking, ODR breaks, or
// a layer dropped from the CMake graph fail this test instead of surfacing
// later as mysterious downstream link errors. `cpclean::all` reaches every
// layer through the DAG's two roots, `eval` and `serve`; serve does not
// link eval, so the eval symbol below also checks that the aggregate keeps
// both roots.

#include <gtest/gtest.h>

#include <vector>

#include "cleaning/imputers.h"
#include "common/rng.h"
#include "core/similarity.h"
#include "data/value.h"
#include "datasets/toy.h"
#include "eval/metrics.h"
#include "incomplete/incomplete_dataset.h"
#include "knn/kernel.h"
#include "knn/vote.h"
#include "serve/json.h"

namespace cpclean {
namespace {

TEST(LinkAllTest, EveryLayerContributesOneSymbol) {
  // common: Rng::NextUint64 lives in rng.cc.
  Rng rng(7);
  rng.NextUint64();

  // data: Value::ToString lives in value.cc.
  EXPECT_EQ(Value().ToString(), Value().ToString());

  // incomplete: IncompleteDataset::AddCleanExample lives in
  // incomplete_dataset.cc.
  IncompleteDataset dataset(2);
  ASSERT_TRUE(dataset.AddCleanExample({0.0, 0.0}, 0).ok());
  ASSERT_TRUE(dataset.AddCleanExample({1.0, 1.0}, 1).ok());

  // knn: MajorityVote lives in vote.cc; NegativeEuclideanKernel's vtable in
  // kernel.cc.
  EXPECT_EQ(MajorityVote({0, 1, 1}, 2), 1);
  NegativeEuclideanKernel kernel;

  // core: SimilarityMatrix lives in similarity.cc.
  const auto sims = SimilarityMatrix(dataset, {0.5, 0.5}, kernel);
  EXPECT_EQ(sims.size(), 2u);

  // datasets: Figure6Dataset lives in toy.cc.
  EXPECT_GT(Figure6Dataset().num_examples(), 0);

  // cleaning: BoostCleanMethodSpace lives in imputers.cc.
  EXPECT_FALSE(BoostCleanMethodSpace().empty());

  // eval: AccuracyScore lives in metrics.cc.
  EXPECT_DOUBLE_EQ(AccuracyScore({0, 1}, {0, 1}), 1.0);

  // serve: JsonValue::Dump lives in json.cc.
  EXPECT_EQ(JsonValue(true).Dump(), "true");
}

}  // namespace
}  // namespace cpclean
