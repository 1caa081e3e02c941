// Micro-benchmarks of the substrates: kernels, top-K selection, support
// trees, BigUint arithmetic, CSV parsing.

#include <benchmark/benchmark.h>

#include "common/big_uint.h"
#include "common/rng.h"
#include "core/support_tree.h"
#include "data/csv.h"
#include "knn/kernel_simd.h"
#include "knn/top_k.h"

namespace cpclean {
namespace {

// One batched neg-Euclidean scan per dispatch level — the table entry every
// production scorer reaches, with cached row norms — pinned via
// TableForLevel (not the env override), so a single run records the
// per-ISA trajectory side by side in BENCH_micro.json. Levels the host or
// binary lacks are skipped loudly. Outputs are bit-identical across
// levels by contract — only the ns_per_op may differ.
void BM_SimilarityBatch_Dispatch(benchmark::State& state) {
  const auto level = static_cast<SimdLevel>(state.range(0));
  const int n = 4096;
  const int dim = static_cast<int>(state.range(1));
  const simd::KernelBatchTable* table = simd::TableForLevel(level);
  if (table == nullptr) {
    state.SkipWithError("dispatch level unavailable on this host/binary");
    return;
  }
  Rng rng(6);
  std::vector<double> rows(static_cast<size_t>(n) * dim);
  std::vector<double> t(static_cast<size_t>(dim));
  std::vector<double> norms(static_cast<size_t>(n));
  for (auto& v : rows) v = rng.NextDouble(-2, 2);
  for (auto& v : t) v = rng.NextDouble(-2, 2);
  for (int r = 0; r < n; ++r) {
    for (int d = 0; d < dim; ++d) {
      const double v = rows[static_cast<size_t>(r) * dim + d];
      norms[static_cast<size_t>(r)] += v * v;
    }
  }
  std::vector<double> out(static_cast<size_t>(n));
  for (auto _ : state) {
    table->neg_euclidean(rows.data(), norms.data(), n, dim, t.data(),
                         out.data());
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.SetLabel(SimdLevelName(level));
  state.counters["rows_per_s"] = benchmark::Counter(
      static_cast<double>(state.iterations()) * n, benchmark::Counter::kIsRate);
}
BENCHMARK(BM_SimilarityBatch_Dispatch)
    ->ArgsProduct({{0, 1, 2}, {8, 64, 512}});

void BM_SelectTopK(benchmark::State& state) {
  Rng rng(2);
  const int n = static_cast<int>(state.range(0));
  const int k = static_cast<int>(state.range(1));
  std::vector<ScoredCandidate> items;
  for (int i = 0; i < n; ++i) {
    items.push_back({rng.NextDouble(), i, 0});
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(SelectTopK(items, k));
  }
}
BENCHMARK(BM_SelectTopK)->ArgsProduct({{1000, 10000}, {1, 3, 31}});

void BM_SupportTreeUpdate(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const int k = static_cast<int>(state.range(1));
  SupportTree<DoubleSemiring> tree(n, k);
  for (int i = 0; i < n; ++i) tree.SetLeaf(i, 0.4, 0.6);
  Rng rng(3);
  for (auto _ : state) {
    const int pos = static_cast<int>(rng.NextUint64(static_cast<uint64_t>(n)));
    tree.SetLeaf(pos, 0.3, 0.7);
    benchmark::DoNotOptimize(tree.Root());
  }
}
BENCHMARK(BM_SupportTreeUpdate)->ArgsProduct({{256, 4096}, {1, 3, 7}});

void BM_SupportTreeProductExcept(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  SupportTree<DoubleSemiring> tree(n, 3);
  for (int i = 0; i < n; ++i) tree.SetLeaf(i, 0.4, 0.6);
  Rng rng(4);
  for (auto _ : state) {
    const int pos = static_cast<int>(rng.NextUint64(static_cast<uint64_t>(n)));
    benchmark::DoNotOptimize(tree.ProductExcept(pos));
  }
}
BENCHMARK(BM_SupportTreeProductExcept)->Arg(256)->Arg(4096);

void BM_BigUintMul(benchmark::State& state) {
  const BigUint a = BigUint(7).Pow(static_cast<uint64_t>(state.range(0)));
  const BigUint b = BigUint(11).Pow(static_cast<uint64_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(a * b);
  }
}
BENCHMARK(BM_BigUintMul)->Arg(10)->Arg(100)->Arg(1000);

void BM_CsvParse(benchmark::State& state) {
  std::string csv = "a,b,c,label\n";
  Rng rng(5);
  for (int r = 0; r < 1000; ++r) {
    csv += std::to_string(rng.NextDouble()) + "," +
           std::to_string(rng.NextDouble()) + ",cat" +
           std::to_string(rng.NextInt(0, 4)) + "," +
           std::to_string(rng.NextInt(0, 1)) + "\n";
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(ReadCsvString(csv));
  }
}
BENCHMARK(BM_CsvParse);

}  // namespace
}  // namespace cpclean

#include "bench_report.h"

int main(int argc, char** argv) {
  return cpclean::benchreport::RunBenchmarksWithReport(
      argc, argv, "BENCH_micro.json");
}
