// Cross-ISA bit-identity for the runtime-dispatched similarity kernels:
// every compiled-and-runnable dispatch level must reproduce the
// lane-structured scalar reference bit for bit — not within ulps — for all
// four kernels, across dimensions that exercise the 8-lane blocking (below
// one block, exactly one block, block+remainder). Plus the resolution
// policy: auto-select, forced downgrades, and the loud rejection paths.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "common/cpu_features.h"
#include "common/rng.h"
#include "knn/kernel.h"
#include "knn/kernel_simd.h"

namespace cpclean {
namespace {

uint64_t Bits(double v) {
  uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

/// EXPECT_EQ on raw bit patterns: EXPECT_DOUBLE_EQ's 4-ulp tolerance would
/// hide exactly the drift this suite exists to forbid.
void ExpectBitIdentical(const std::vector<double>& want,
                        const std::vector<double>& got,
                        const std::string& context) {
  ASSERT_EQ(want.size(), got.size()) << context;
  for (size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(Bits(want[i]), Bits(got[i]))
        << context << " row " << i << ": scalar " << want[i] << " vs "
        << got[i];
  }
}

std::vector<SimdLevel> AvailableLevels() {
  std::vector<SimdLevel> levels;
  for (const SimdLevel level :
       {SimdLevel::kScalar, SimdLevel::kAvx2, SimdLevel::kAvx512}) {
    if (simd::TableForLevel(level) != nullptr) levels.push_back(level);
  }
  return levels;
}

struct Shape {
  int n;
  int dim;
};

TEST(KernelDispatchTest, ScalarTableAlwaysAvailable) {
  ASSERT_NE(simd::TableForLevel(SimdLevel::kScalar), nullptr);
  EXPECT_EQ(simd::TableForLevel(SimdLevel::kScalar)->level,
            SimdLevel::kScalar);
}

TEST(KernelDispatchTest, AllKernelsBitIdenticalAcrossLevels) {
  const simd::KernelBatchTable& ref = *simd::TableForLevel(SimdLevel::kScalar);
  Rng rng(123);
  // Odd dims straddle the 8-lane blocking; n=17 exercises multi-row strides.
  for (const Shape shape : {Shape{1, 1}, Shape{3, 7}, Shape{4, 8},
                            Shape{5, 9}, Shape{2, 64}, Shape{17, 65}}) {
    const int n = shape.n, dim = shape.dim;
    std::vector<double> rows(static_cast<size_t>(n) * dim);
    std::vector<double> t(static_cast<size_t>(dim));
    std::vector<double> norms(static_cast<size_t>(n));
    for (auto& v : rows) v = rng.NextDouble(-3, 3);
    for (auto& v : t) v = rng.NextDouble(-3, 3);
    for (int r = 0; r < n; ++r) {
      double sq = 0.0;
      for (int d = 0; d < dim; ++d) {
        const double v = rows[static_cast<size_t>(r) * dim + d];
        sq += v * v;
      }
      norms[static_cast<size_t>(r)] = sq;
    }
    std::vector<double> want(static_cast<size_t>(n));
    std::vector<double> got(static_cast<size_t>(n));
    for (const SimdLevel level : AvailableLevels()) {
      const simd::KernelBatchTable& table = *simd::TableForLevel(level);
      const std::string ctx = std::string(SimdLevelName(level)) + " n=" +
                              std::to_string(n) + " dim=" +
                              std::to_string(dim);
      ref.neg_euclidean(rows.data(), norms.data(), n, dim, t.data(),
                        want.data());
      table.neg_euclidean(rows.data(), norms.data(), n, dim, t.data(),
                          got.data());
      ExpectBitIdentical(want, got, "neg_euclidean " + ctx);

      ref.rbf(rows.data(), norms.data(), n, dim, t.data(), 0.7, want.data());
      table.rbf(rows.data(), norms.data(), n, dim, t.data(), 0.7, got.data());
      ExpectBitIdentical(want, got, "rbf " + ctx);

      ref.linear(rows.data(), n, dim, t.data(), want.data());
      table.linear(rows.data(), n, dim, t.data(), got.data());
      ExpectBitIdentical(want, got, "linear " + ctx);

      ref.cosine(rows.data(), norms.data(), n, dim, t.data(), want.data());
      table.cosine(rows.data(), norms.data(), n, dim, t.data(), got.data());
      ExpectBitIdentical(want, got, "cosine " + ctx);
    }
  }
}

TEST(KernelDispatchTest, EmptyBatchIsANoOpOnEveryLevel) {
  const double t[3] = {1.0, 2.0, 3.0};
  for (const SimdLevel level : AvailableLevels()) {
    const simd::KernelBatchTable& table = *simd::TableForLevel(level);
    double sentinel = -7.0;
    table.neg_euclidean(nullptr, nullptr, 0, 3, t, &sentinel);
    table.rbf(nullptr, nullptr, 0, 3, t, 0.7, &sentinel);
    table.linear(nullptr, 0, 3, t, &sentinel);
    table.cosine(nullptr, nullptr, 0, 3, t, &sentinel);
    EXPECT_DOUBLE_EQ(sentinel, -7.0) << SimdLevelName(level);
  }
}

TEST(KernelDispatchTest, PublicKernelsForwardToActiveTable) {
  // The kernel classes are thin wrappers: each must hand its rows, norms
  // and gamma to the active level's table entry unchanged, so a score seen
  // through the public API is the table's score bit for bit.
  Rng rng(9);
  const int n = 5, dim = 9;
  std::vector<double> rows(static_cast<size_t>(n) * dim);
  std::vector<double> norms(static_cast<size_t>(n));
  std::vector<double> t(static_cast<size_t>(dim));
  for (auto& v : rows) v = rng.NextDouble(-3, 3);
  for (auto& v : t) v = rng.NextDouble(-3, 3);
  for (int r = 0; r < n; ++r) {
    double sq = 0.0;
    for (int d = 0; d < dim; ++d) {
      const double v = rows[static_cast<size_t>(r) * dim + d];
      sq += v * v;
    }
    norms[static_cast<size_t>(r)] = sq;
  }
  const simd::KernelBatchTable& table = simd::ActiveTable();
  std::vector<double> want(static_cast<size_t>(n));
  std::vector<double> got(static_cast<size_t>(n));
  for (const KernelKind kind :
       {KernelKind::kNegativeEuclidean, KernelKind::kRbf, KernelKind::kLinear,
        KernelKind::kCosine}) {
    const auto kernel = MakeKernel(kind, 0.7);
    switch (kind) {
      case KernelKind::kNegativeEuclidean:
        table.neg_euclidean(rows.data(), norms.data(), n, dim, t.data(),
                            want.data());
        break;
      case KernelKind::kRbf:
        table.rbf(rows.data(), norms.data(), n, dim, t.data(), 0.7,
                  want.data());
        break;
      case KernelKind::kLinear:
        table.linear(rows.data(), n, dim, t.data(), want.data());
        break;
      case KernelKind::kCosine:
        table.cosine(rows.data(), norms.data(), n, dim, t.data(),
                     want.data());
        break;
    }
    kernel->SimilarityBatch(rows.data(), norms.data(), n, dim, t.data(),
                            got.data());
    ExpectBitIdentical(want, got, kernel->name() + " public API");
  }
}

TEST(KernelDispatchTest, ActiveLevelIsRunnableAndConsistent) {
  const SimdLevel active = simd::ActiveSimdLevel();
  EXPECT_LE(active, DetectSimdLevel());
  EXPECT_LE(active, simd::MaxCompiledSimdLevel());
  ASSERT_NE(simd::TableForLevel(active), nullptr);
  EXPECT_EQ(simd::ActiveTable().level, active);
}

// --- Resolution policy / env-override rejection ------------------------------

TEST(SimdResolveTest, AutoSelectsMinOfDetectedAndCompiled) {
  const Result<SimdLevel> a =
      ResolveSimdLevel(nullptr, SimdLevel::kAvx512, SimdLevel::kAvx2);
  ASSERT_TRUE(a.ok());
  EXPECT_EQ(a.value(), SimdLevel::kAvx2);
  const Result<SimdLevel> b =
      ResolveSimdLevel("", SimdLevel::kAvx2, SimdLevel::kAvx512);
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(b.value(), SimdLevel::kAvx2);
  const Result<SimdLevel> c =
      ResolveSimdLevel(nullptr, SimdLevel::kScalar, SimdLevel::kAvx512);
  ASSERT_TRUE(c.ok());
  EXPECT_EQ(c.value(), SimdLevel::kScalar);
}

TEST(SimdResolveTest, AutoCapsAtAvx2ButForcedAvx512IsHonored) {
  // The single-chain lane shape makes AVX-512 slower than AVX2 on the
  // kernels (committed BM_SimilarityBatch_Dispatch rows), so auto never
  // picks it — but an explicit override still gets it.
  const Result<SimdLevel> silent =
      ResolveSimdLevel(nullptr, SimdLevel::kAvx512, SimdLevel::kAvx512);
  ASSERT_TRUE(silent.ok());
  EXPECT_EQ(silent.value(), SimdLevel::kAvx2);
  const Result<SimdLevel> forced =
      ResolveSimdLevel("avx512", SimdLevel::kAvx512, SimdLevel::kAvx512);
  ASSERT_TRUE(forced.ok());
  EXPECT_EQ(forced.value(), SimdLevel::kAvx512);
}

TEST(SimdResolveTest, ForcedDowngradeAlwaysHonored) {
  for (const char* name : {"scalar", "avx2", "avx512"}) {
    const Result<SimdLevel> r =
        ResolveSimdLevel(name, SimdLevel::kAvx512, SimdLevel::kAvx512);
    ASSERT_TRUE(r.ok()) << name;
    EXPECT_STREQ(SimdLevelName(r.value()), name);
  }
}

TEST(SimdResolveTest, RejectsLevelAboveHardware) {
  const Result<SimdLevel> r =
      ResolveSimdLevel("avx512", SimdLevel::kAvx2, SimdLevel::kAvx512);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(r.status().message().find("host supports at most"),
            std::string::npos);
}

TEST(SimdResolveTest, RejectsLevelAboveCompiled) {
  const Result<SimdLevel> r =
      ResolveSimdLevel("avx2", SimdLevel::kAvx512, SimdLevel::kScalar);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(r.status().message().find("built without"), std::string::npos);
}

TEST(SimdResolveTest, RejectsUnknownName) {
  const Result<SimdLevel> r =
      ResolveSimdLevel("sse9", SimdLevel::kAvx512, SimdLevel::kAvx512);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  ASSERT_FALSE(ParseSimdLevel("AVX2").ok());  // case-sensitive, like the env
}

TEST(SimdResolveTest, ParseRoundTripsEveryName) {
  for (const SimdLevel level :
       {SimdLevel::kScalar, SimdLevel::kAvx2, SimdLevel::kAvx512}) {
    const Result<SimdLevel> parsed = ParseSimdLevel(SimdLevelName(level));
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(parsed.value(), level);
  }
}

}  // namespace
}  // namespace cpclean
