// Validates the production FastQ2 engine against the reference SS-DC
// engine (itself validated against brute force), including the pinned
// "what if candidate j is the truth" queries that power CPClean.

#include "core/fast_q2.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <string>

#include "common/stats.h"
#include "core/brute_force.h"
#include "core/ss_dc.h"
#include "knn/kernel.h"
#include "tests/test_util.h"

namespace cpclean {
namespace {

using testing_util::MakeRandomDataset;
using testing_util::MakeRandomTestPoint;
using testing_util::RandomDatasetSpec;

class FastQ2Test : public ::testing::TestWithParam<std::tuple<int, int, int>> {
};

TEST_P(FastQ2Test, MatchesReferenceEngine) {
  const int seed = std::get<0>(GetParam());
  const int k = std::get<1>(GetParam());
  const int num_labels = std::get<2>(GetParam());

  RandomDatasetSpec spec;
  spec.num_examples = 12;
  spec.max_candidates = 3;
  spec.num_labels = num_labels;
  spec.seed = static_cast<uint64_t>(seed);
  IncompleteDataset dataset = MakeRandomDataset(spec);
  const std::vector<double> t =
      MakeRandomTestPoint(spec.dim, static_cast<uint64_t>(seed));
  NegativeEuclideanKernel kernel;

  FastQ2 fast(&dataset, k, /*epsilon=*/0.0);  // full scan, no truncation
  fast.SetTestPoint(t, kernel);
  const std::vector<double> got = fast.Fractions();
  const std::vector<double> want =
      SsDcCount<DoubleSemiring, true>(dataset, t, kernel, k).Fractions();
  ASSERT_EQ(got.size(), want.size());
  for (size_t y = 0; y < want.size(); ++y) {
    EXPECT_NEAR(got[y], want[y], 1e-9) << "label " << y;
  }

  // Early termination changes fractions only within epsilon.
  FastQ2 truncated(&dataset, k, /*epsilon=*/1e-9);
  truncated.SetTestPoint(t, kernel);
  const std::vector<double> approx = truncated.Fractions();
  for (size_t y = 0; y < want.size(); ++y) {
    EXPECT_NEAR(approx[y], want[y], 1e-6) << "label " << y;
  }

  // Pinned queries match SS-DC on the explicitly collapsed dataset, and
  // queries are independent (internal state restores between calls).
  for (int i : {0, 3, 7}) {
    for (int j = 0; j < dataset.num_candidates(i); ++j) {
      const std::vector<double> pinned = truncated.FractionsPinned(i, j);
      IncompleteDataset collapsed = dataset;
      collapsed.FixExample(i, j);
      const std::vector<double> expect =
          SsDcCount<DoubleSemiring, true>(collapsed, t, kernel, k).Fractions();
      for (size_t y = 0; y < expect.size(); ++y) {
        EXPECT_NEAR(pinned[y], expect[y], 1e-6)
            << "pin (" << i << "," << j << ") label " << y;
      }
    }
  }
  // Re-running the unpinned query still matches (state restoration).
  const std::vector<double> again = truncated.Fractions();
  for (size_t y = 0; y < want.size(); ++y) {
    EXPECT_NEAR(again[y], want[y], 1e-6);
  }
}

uint64_t Bits(double x) {
  uint64_t b = 0;
  std::memcpy(&b, &x, sizeof(double));
  return b;
}

TEST_P(FastQ2Test, EntropyPinnedSweepBitMatchesPerCandidateCalls) {
  // The shared-prefix sweep must reproduce m separate EntropyPinned(i, j)
  // calls bit for bit — including under aggressive early termination
  // (which can end inside the shared prefix) — and must leave the engine
  // state pristine so later queries on the same engine are unaffected.
  const int seed = std::get<0>(GetParam());
  const int k = std::get<1>(GetParam());
  const int num_labels = std::get<2>(GetParam());

  RandomDatasetSpec spec;
  spec.num_examples = 12;
  spec.max_candidates = 3;
  spec.num_labels = num_labels;
  spec.seed = static_cast<uint64_t>(seed);
  IncompleteDataset dataset = MakeRandomDataset(spec);
  const std::vector<double> t =
      MakeRandomTestPoint(spec.dim, static_cast<uint64_t>(seed));
  NegativeEuclideanKernel kernel;

  for (const double epsilon : {0.0, 1e-9, 1e-3}) {
    FastQ2 sweep_engine(&dataset, k, epsilon);
    FastQ2 ref_engine(&dataset, k, epsilon);
    sweep_engine.SetTestPoint(t, kernel);
    ref_engine.SetTestPoint(t, kernel);
    for (int i = 0; i < dataset.num_examples(); ++i) {
      const int m = dataset.num_candidates(i);
      const std::vector<double> got = sweep_engine.EntropyPinnedSweep(i);
      ASSERT_EQ(static_cast<int>(got.size()), m);
      for (int j = 0; j < m; ++j) {
        const double want = ref_engine.EntropyPinned(i, j);
        EXPECT_EQ(Bits(got[static_cast<size_t>(j)]), Bits(want))
            << "epsilon " << epsilon << " pin (" << i << "," << j << ")";
      }
    }
    // State restoration: the engine that ran every sweep must answer
    // per-candidate queries (and repeat sweeps) with the same bits.
    for (const int i : {0, 5, 11}) {
      const std::vector<double> again = sweep_engine.EntropyPinnedSweep(i);
      for (int j = 0; j < dataset.num_candidates(i); ++j) {
        EXPECT_EQ(Bits(again[static_cast<size_t>(j)]),
                  Bits(sweep_engine.EntropyPinned(i, j)))
            << "epsilon " << epsilon << " pin (" << i << "," << j << ")";
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, FastQ2Test,
                         ::testing::Combine(::testing::Range(1, 9),
                                            ::testing::Values(1, 2, 3, 4, 5,
                                                              7),
                                            ::testing::Values(2, 3)));

// The `n` dirty tuples most similar to the bound test point (ties broken
// by id), i.e. the pins whose candidates the truncated scan actually reaches.
std::vector<int> MostSimilarDirty(const IncompleteDataset& dataset,
                                  const FastQ2& engine, size_t n) {
  std::vector<int> dirty = dataset.DirtyExamples();
  std::stable_sort(dirty.begin(), dirty.end(), [&](int a, int b) {
    return engine.MaxSimilarity(a) > engine.MaxSimilarity(b);
  });
  dirty.resize(std::min(n, dirty.size()));
  return dirty;
}

void AppendBits(const std::vector<double>& values, std::vector<uint64_t>* out) {
  for (const double v : values) out->push_back(Bits(v));
}

std::string FormatBits(const std::vector<uint64_t>& bits) {
  std::string text;
  char buf[32];
  for (size_t i = 0; i < bits.size(); ++i) {
    std::snprintf(buf, sizeof(buf), "0x%016" PRIx64 "ULL,%s", bits[i],
                  i % 3 == 2 ? "\n" : " ");
    text += buf;
  }
  return text;
}

// Every answer the engine gives on one fixed ~300-row, k=3 instance, as
// raw bits in a fixed order: Fractions(), FractionsPinned over every
// candidate of the two tuples nearest the test point, and
// EntropyPinnedSweep for the four nearest dirty tuples plus one far one
// (whose sweep ends inside the shared prefix).
std::vector<uint64_t> GoldenInstanceBits(double epsilon) {
  RandomDatasetSpec spec;
  spec.num_examples = 300;
  spec.max_candidates = 3;
  spec.num_labels = 3;
  spec.seed = 2034;
  const IncompleteDataset dataset = MakeRandomDataset(spec);
  const std::vector<double> t = MakeRandomTestPoint(spec.dim, 2034);
  NegativeEuclideanKernel kernel;
  FastQ2 engine(&dataset, /*k=*/3, epsilon);
  engine.SetTestPoint(t, kernel);

  std::vector<uint64_t> bits;
  AppendBits(engine.Fractions(), &bits);
  const std::vector<int> near = MostSimilarDirty(dataset, engine, 4);
  for (size_t p = 0; p < 2; ++p) {
    for (int j = 0; j < dataset.num_candidates(near[p]); ++j) {
      AppendBits(engine.FractionsPinned(near[p], j), &bits);
    }
  }
  std::vector<int> swept = near;
  swept.push_back(dataset.DirtyExamples().back());
  for (const int i : swept) AppendBits(engine.EntropyPinnedSweep(i), &bits);

  // The engine that answered everything above must give a new test point
  // the same bits as a brand-new engine: every query restored its trees.
  const std::vector<double> t2 = MakeRandomTestPoint(spec.dim, 77);
  engine.SetTestPoint(t2, kernel);
  FastQ2 fresh(&dataset, /*k=*/3, epsilon);
  fresh.SetTestPoint(t2, kernel);
  EXPECT_EQ(engine.Fractions(), fresh.Fractions());
  for (const int i : MostSimilarDirty(dataset, fresh, 3)) {
    EXPECT_EQ(engine.EntropyPinnedSweep(i), fresh.EntropyPinnedSweep(i))
        << "tuple " << i;
  }
  return bits;
}

// Recorded from the engine before its support-tree loops were rewritten
// (identity-operand skipping, the fused boundary/path walk and the
// multiply-free restore), so this pins the rewrite to the old bits.
TEST(FastQ2GoldenBitsTest, MatchesRecordedBits) {
  const std::vector<uint64_t> want = {
      0x3fd78d8eb5eed148ULL, 0x3fda38be8f6f4778ULL, 0x3fcc73657543ce8fULL,
      0x3fd010db20a88f45ULL, 0x3fe54a1894e4f5d1ULL, 0x3fb56bced636145dULL,
      0x3fdb4be88091f23eULL, 0x3fd20b054241f55fULL, 0x3fd2a9123d2c185dULL,
      0x3fdb4be88091f23eULL, 0x3fd20b054241f55fULL, 0x3fd2a9123d2c185dULL,
      0x3fd010db20a88f45ULL, 0x3fe54a1894e4f5d1ULL, 0x3fb56bced636145dULL,
      0x3fdb4be88091f23eULL, 0x3fd20b054241f55fULL, 0x3fd2a9123d2c185dULL,
      0x3fdb4be88091f23eULL, 0x3fd20b054241f55fULL, 0x3fd2a9123d2c185dULL,
      0x3fea6bf28e93d218ULL, 0x3ff1469c65a9d315ULL, 0x3ff1469c65a9d315ULL,
      0x3fea6bf28e93d218ULL, 0x3ff1469c65a9d315ULL, 0x3ff1469c65a9d315ULL,
      0x3ff18fbb13a01f8fULL, 0x3feed08af8a67e19ULL, 0x3fea6bf28e93d218ULL,
      0x3ff1469c65a9d315ULL, 0x3ff1469c65a9d315ULL, 0x3ff1156bf9deb904ULL,
      0x3ff1156bf9deb904ULL,
  };
  // On this instance the collected mass reaches 1.0 at the entry where
  // epsilon 1e-9 stops, so epsilon 0 stops there too with the same bits.
  for (const double epsilon : {1e-9, 0.0}) {
    const std::vector<uint64_t> got = GoldenInstanceBits(epsilon);
    EXPECT_EQ(got, want) << "epsilon " << epsilon << " bits:\n"
                         << FormatBits(got);
  }
}

class FastQ2DeepTreeTest : public ::testing::TestWithParam<int> {};

TEST_P(FastQ2DeepTreeTest, SweepsAndRestoresStayBitExact) {
  // >= 256 tuples per label make 9-level trees, so a sweep's suffix
  // replays dirty long paths that share ancestors across many levels.
  // Single-candidate tuples reach above == m (the [0, 1, 0, ...] leaf) at
  // their first entry.
  const int k = GetParam();
  RandomDatasetSpec spec;
  spec.num_examples = 640;
  spec.max_candidates = 3;
  spec.num_labels = 2;
  spec.seed = 31;
  const IncompleteDataset dataset = MakeRandomDataset(spec);
  for (int l = 0; l < spec.num_labels; ++l) {
    int rows = 0;
    for (int i = 0; i < dataset.num_examples(); ++i) {
      rows += dataset.label(i) == l ? 1 : 0;
    }
    ASSERT_GE(rows, 256) << "label " << l;
  }
  const std::vector<double> t = MakeRandomTestPoint(spec.dim, 31);
  NegativeEuclideanKernel kernel;

  for (const double epsilon : {0.0, 1e-9}) {
    FastQ2 sweep_engine(&dataset, k, epsilon);
    FastQ2 ref_engine(&dataset, k, epsilon);
    sweep_engine.SetTestPoint(t, kernel);
    ref_engine.SetTestPoint(t, kernel);
    if (epsilon == 0.0) {
      const std::vector<double> got = sweep_engine.Fractions();
      const std::vector<double> want =
          SsDcCount<DoubleSemiring, true>(dataset, t, kernel, k).Fractions();
      ASSERT_EQ(got.size(), want.size());
      for (size_t y = 0; y < want.size(); ++y) {
        EXPECT_NEAR(got[y], want[y], 1e-9) << "label " << y;
      }
    }
    std::vector<int> tuples = MostSimilarDirty(dataset, sweep_engine, 12);
    for (int i = 0; i < dataset.num_examples(); i += 40) tuples.push_back(i);
    for (const int i : tuples) {
      const std::vector<double> got = sweep_engine.EntropyPinnedSweep(i);
      for (int j = 0; j < dataset.num_candidates(i); ++j) {
        EXPECT_EQ(Bits(got[static_cast<size_t>(j)]),
                  Bits(ref_engine.EntropyPinned(i, j)))
            << "epsilon " << epsilon << " pin (" << i << "," << j << ")";
      }
    }
    // After all of that, both engines must be back to pristine trees.
    const std::vector<double> t2 = MakeRandomTestPoint(spec.dim, 32);
    sweep_engine.SetTestPoint(t2, kernel);
    FastQ2 fresh(&dataset, k, epsilon);
    fresh.SetTestPoint(t2, kernel);
    EXPECT_EQ(sweep_engine.Fractions(), fresh.Fractions())
        << "epsilon " << epsilon;
    const int near = MostSimilarDirty(dataset, fresh, 1).front();
    EXPECT_EQ(sweep_engine.EntropyPinnedSweep(near),
              fresh.EntropyPinnedSweep(near))
        << "epsilon " << epsilon;
  }
}

INSTANTIATE_TEST_SUITE_P(Widths, FastQ2DeepTreeTest,
                         ::testing::Values(1, 3, 4));

FastQ2::WorkCounters CountersDelta(const FastQ2::WorkCounters& before,
                                   const FastQ2::WorkCounters& after) {
  return {after.entries - before.entries,
          after.multiplies - before.multiplies,
          after.identity_skips - before.identity_skips,
          after.restore_writes - before.restore_writes};
}

TEST(FastQ2CountersTest, RepeatExactlyAcrossRepeatedQueries) {
  RandomDatasetSpec spec;
  spec.num_examples = 200;
  spec.num_labels = 3;
  spec.seed = 5;
  const IncompleteDataset dataset = MakeRandomDataset(spec);
  NegativeEuclideanKernel kernel;
  FastQ2 engine(&dataset, /*k=*/3, 1e-9);
  engine.SetTestPoint(MakeRandomTestPoint(spec.dim, 5), kernel);
  const int pin = MostSimilarDirty(dataset, engine, 1).front();

  const auto run_all = [&] {
    const FastQ2::WorkCounters before = engine.counters();
    engine.Fractions();
    engine.FractionsPinned(pin, 0);
    engine.EntropyPinnedSweep(pin);
    return CountersDelta(before, engine.counters());
  };
  const FastQ2::WorkCounters first = run_all();
  const FastQ2::WorkCounters second = run_all();
  EXPECT_GT(first.entries, 0u);
  EXPECT_GT(first.multiplies, 0u);
  EXPECT_GT(first.identity_skips, 0u);
  EXPECT_GT(first.restore_writes, 0u);
  EXPECT_EQ(first.entries, second.entries);
  EXPECT_EQ(first.multiplies, second.multiplies);
  EXPECT_EQ(first.identity_skips, second.identity_skips);
  EXPECT_EQ(first.restore_writes, second.restore_writes);
}

TEST(FastQ2CountersTest, SweepMultipliesNoMoreThanPerCandidateCalls) {
  RandomDatasetSpec spec;
  spec.num_examples = 200;
  spec.num_labels = 3;
  spec.seed = 6;
  const IncompleteDataset dataset = MakeRandomDataset(spec);
  NegativeEuclideanKernel kernel;
  for (const double epsilon : {0.0, 1e-9}) {
    FastQ2 engine(&dataset, /*k=*/3, epsilon);
    engine.SetTestPoint(MakeRandomTestPoint(spec.dim, 6), kernel);
    for (const int i : MostSimilarDirty(dataset, engine, 8)) {
      FastQ2::WorkCounters before = engine.counters();
      engine.EntropyPinnedSweep(i);
      const uint64_t sweep =
          CountersDelta(before, engine.counters()).multiplies;
      before = engine.counters();
      for (int j = 0; j < dataset.num_candidates(i); ++j) {
        engine.EntropyPinned(i, j);
      }
      const uint64_t separate =
          CountersDelta(before, engine.counters()).multiplies;
      EXPECT_LE(sweep, separate) << "epsilon " << epsilon << " tuple " << i;
    }
  }
}

TEST(FastQ2PruningTest, TopKFloorSoundness) {
  // Tuples whose max similarity sits below the top-K floor cannot change
  // the distribution when pinned.
  RandomDatasetSpec spec;
  spec.num_examples = 20;
  spec.max_candidates = 3;
  spec.num_labels = 2;
  spec.seed = 99;
  IncompleteDataset dataset = MakeRandomDataset(spec);
  const std::vector<double> t = MakeRandomTestPoint(spec.dim, 99);
  NegativeEuclideanKernel kernel;
  FastQ2 fast(&dataset, /*k=*/3, 0.0);
  fast.SetTestPoint(t, kernel);
  const double floor = fast.TopKFloor();
  const std::vector<double> base = fast.Fractions();
  int pruned = 0;
  for (int i = 0; i < dataset.num_examples(); ++i) {
    if (fast.MaxSimilarity(i) >= floor) continue;
    ++pruned;
    for (int j = 0; j < dataset.num_candidates(i); ++j) {
      const std::vector<double> pinned = fast.FractionsPinned(i, j);
      for (size_t y = 0; y < base.size(); ++y) {
        EXPECT_NEAR(pinned[y], base[y], 1e-9)
            << "pruned tuple " << i << " candidate " << j;
      }
    }
  }
  EXPECT_GT(pruned, 0) << "test instance should have prunable tuples";
}

TEST(FastQ2PruningTest, MinMaxSimilarityReported) {
  IncompleteDataset dataset(2);
  ASSERT_TRUE(dataset.AddExample({{{0.0}, {3.0}}, 0}).ok());
  ASSERT_TRUE(dataset.AddExample({{{1.0}}, 1}).ok());
  NegativeEuclideanKernel kernel;
  FastQ2 fast(&dataset, 1, 0.0);
  fast.SetTestPoint({0.0}, kernel);
  EXPECT_DOUBLE_EQ(fast.MaxSimilarity(0), 0.0);   // candidate at distance 0
  EXPECT_DOUBLE_EQ(fast.MinSimilarity(0), -9.0);  // candidate at distance 3
  EXPECT_DOUBLE_EQ(fast.MaxSimilarity(1), -1.0);
}

TEST(FastQ2HorizonTest, CleaningBelowTheHorizonKeepsBits) {
  // A query never processes an entry less similar than its horizon, so
  // collapsing a tuple whose best candidate lies strictly below it (which
  // keeps labels and hence the tree layout) must leave the answer bit for
  // bit unchanged — the rule cleaning selection carries its cells on. The
  // cleaned tuple is the one just below the horizon, the tightest case.
  NegativeEuclideanKernel kernel;
  int checked = 0;
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    RandomDatasetSpec spec;
    spec.num_examples = 120;
    spec.max_candidates = 4;
    spec.num_labels = 3;
    spec.seed = seed;
    const IncompleteDataset original = MakeRandomDataset(spec);
    const std::vector<double> t = MakeRandomTestPoint(spec.dim, seed);
    FastQ2 before(&original, /*k=*/3, 1e-9);
    before.SetTestPoint(t, kernel);
    const double unpinned = before.EntropyUnpinned();
    const double unpinned_horizon = before.last_horizon();
    for (const int pin : MostSimilarDirty(original, before, 4)) {
      const std::vector<double> sweep = before.EntropyPinnedSweep(pin);
      const double sweep_horizon = before.last_horizon();
      const double horizon = std::min(sweep_horizon, unpinned_horizon);
      int cleaned_tuple = -1;
      for (const int i : original.DirtyExamples()) {
        if (i == pin || before.MaxSimilarity(i) >= horizon) continue;
        if (cleaned_tuple < 0 || before.MaxSimilarity(i) >
                                     before.MaxSimilarity(cleaned_tuple)) {
          cleaned_tuple = i;
        }
      }
      if (cleaned_tuple < 0) continue;
      IncompleteDataset cleaned = original;
      cleaned.FixExample(cleaned_tuple,
                         original.num_candidates(cleaned_tuple) - 1);
      FastQ2 after(&cleaned, /*k=*/3, 1e-9);
      after.SetTestPoint(t, kernel);
      EXPECT_EQ(Bits(after.EntropyUnpinned()), Bits(unpinned))
          << "seed " << seed << " cleaned " << cleaned_tuple;
      EXPECT_EQ(after.last_horizon(), unpinned_horizon);
      std::vector<uint64_t> want, got;
      AppendBits(sweep, &want);
      AppendBits(after.EntropyPinnedSweep(pin), &got);
      EXPECT_EQ(got, want) << "seed " << seed << " pin " << pin
                           << " cleaned " << cleaned_tuple;
      EXPECT_EQ(after.last_horizon(), sweep_horizon);
      ++checked;
    }
  }
  EXPECT_GT(checked, 10) << "too few tuples below a horizon to test";
}

}  // namespace
}  // namespace cpclean
