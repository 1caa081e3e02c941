// clean_converge: the paper's end-to-end job through the library. Greedy
// CPClean (CleaningSession::StepGreedy) runs to all-validation-certain on
// the four Table 2 dataset analogs at exp_table2_end_to_end's defaults
// (train 150, val 60, test 300, seed 3, K = 3), with the global pool at
// three threads. No server, no store.

#include <sys/resource.h>

#include <algorithm>
#include <memory>
#include <string>
#include <utility>

#include "cleaning/cp_clean.h"
#include "common/checksum.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "datasets/paper_datasets.h"
#include "eval/experiment.h"
#include "knn/kernel.h"
#include "probes.h"
#include "workloads.h"

namespace perfbench {
namespace {

using cpclean::JsonValue;

constexpr int kTrainRows = 150;
constexpr int kValSize = 60;
constexpr int kTestSize = 300;
constexpr uint64_t kTaskSeed = 3;
constexpr int kK = 3;
/// One core fewer than the 4-vCPU hosts the benchmark runs on: with a
/// thread per core, any outside load stalls a step behind its slowest
/// worker, and the step times measured the neighbours more than the pool.
constexpr int kPoolThreads = 3;
constexpr int kSetupRepeats = 21;

/// Each dataset's cleaning order at the task parameters above: its length
/// and the FNV-1a hash of "id,id,...,". The determinism contract makes the
/// order independent of host, thread count and SIMD level, so any other
/// value is a bug.
struct ExpectedOrder {
  const char* dataset;
  int steps;
  uint64_t hash;
};
constexpr ExpectedOrder kExpectedOrders[] = {
    {"BabyProduct", 52, 17340304118061058699ull},
    {"Supreme", 86, 15724722222018266433ull},
    {"Bank", 88, 13807932193725829110ull},
    {"Puma", 81, 17746613096367233032ull},
};

struct Task {
  std::string name;
  cpclean::CleaningTask task;
};

cpclean::CpCleanOptions SessionOptions() {
  cpclean::CpCleanOptions options;
  options.k = kK;
  options.track_test_accuracy = false;
  options.num_threads = 0;  // the global pool, sized to kPoolThreads
  return options;
}

/// One pass: every task from a fresh session to all-certain, appending
/// each step's latency to `step_ms` and each task's cleaning order to
/// `orders`. With `layers`, every step is probed. Returns the pass's wall
/// time in seconds (session construction and first refresh excluded: they
/// are set-up).
double ConvergePass(const std::vector<std::unique_ptr<Task>>& tasks,
                    const cpclean::SimilarityKernel& kernel,
                    std::vector<double>* step_ms,
                    std::vector<std::string>* orders, WorkloadResult* result,
                    LayerSamples* layers) {
  double seconds = 0.0;
  orders->clear();
  for (const auto& entry : tasks) {
    cpclean::CleaningSession session(&entry->task, &kernel, SessionOptions());
    session.FracValCertain();
    std::unique_ptr<ProbedCleaner> probed;
    if (layers != nullptr) {
      probed = std::make_unique<ProbedCleaner>(&entry->task, &kernel,
                                               &session, kK);
    }
    std::string order;
    const Clock::time_point start = Clock::now();
    while (true) {
      int example = -1;
      if (probed != nullptr) {
        example = probed->Step(layers);
        if (example >= 0) step_ms->push_back(layers->step_ms.back());
      } else {
        const Clock::time_point t = Clock::now();
        example = session.StepGreedy();
        if (example >= 0) step_ms->push_back(MsSince(t));
      }
      if (example < 0) break;
      result->outcomes.RecordLocal("clean_step", true);
      order += std::to_string(example) + ",";
    }
    seconds += MsSince(start) / 1e3;
    if (session.FracValCertain() != 1.0) {
      result->failures.push_back(entry->name + " did not reach all-certain");
    }
    orders->push_back(std::move(order));
  }
  return seconds;
}

/// Checks each task's cleaning order against kExpectedOrders and records
/// the per-dataset facts in the detail line.
void CheckOrders(const std::vector<std::unique_ptr<Task>>& tasks,
                 const std::vector<std::string>& orders,
                 WorkloadResult* result) {
  JsonValue datasets = JsonValue::MakeArray();
  for (size_t i = 0; i < tasks.size(); ++i) {
    const std::string& name = tasks[i]->name;
    const cpclean::IncompleteDataset& data = tasks[i]->task.incomplete;
    const int steps =
        static_cast<int>(std::count(orders[i].begin(), orders[i].end(), ','));
    const uint64_t hash = cpclean::Fnv1a64(orders[i]);
    JsonValue d = JsonValue::MakeObject();
    d.Set("dataset", JsonValue(name));
    d.Set("train_rows", JsonValue(data.num_examples()));
    d.Set("slab_bytes", JsonValue(SlabBytes(data)));
    d.Set("steps", JsonValue(steps));
    d.Set("order_hash", JsonValue(std::to_string(hash)));
    datasets.Append(std::move(d));
    const ExpectedOrder* expected = nullptr;
    for (const ExpectedOrder& e : kExpectedOrders) {
      if (name == e.dataset) expected = &e;
    }
    if (expected == nullptr) {
      result->failures.push_back("no expected cleaning order for " + name);
    } else if (expected->steps != steps || expected->hash != hash) {
      result->failures.push_back(
          name + ": cleaned " + std::to_string(steps) + " examples, order " +
          "hash " + std::to_string(hash) + "; expected " +
          std::to_string(expected->steps) + ", hash " +
          std::to_string(expected->hash));
    }
  }
  result->detail.Set("datasets", std::move(datasets));
}

}  // namespace

WorkloadResult RunCleanConverge(const BenchArgs& args) {
  WorkloadResult result;
  const cpclean::Status pool = cpclean::ConfigureGlobalThreadPool(kPoolThreads);
  if (!pool.ok()) result.failures.push_back(pool.ToString());
  cpclean::NegativeEuclideanKernel kernel;

  // The seed orders the four tasks; the tasks themselves stay fixed so
  // their committed cleaning orders stay checkable.
  std::vector<cpclean::PaperDatasetSpec> specs =
      cpclean::PaperDatasetSuite(kTrainRows, kValSize, kTestSize);
  cpclean::Rng rng(args.seed);
  for (size_t i = specs.size(); i > 1; --i) {
    std::swap(specs[i - 1], specs[static_cast<size_t>(rng.NextUint64(i))]);
  }

  // Set-up: build every task and take its first certainty refresh. The
  // median of kSetupRepeats rounds is reported; the last round is kept.
  std::vector<std::unique_ptr<Task>> tasks;
  std::vector<double> setup_s;
  for (int round = 0; round < kSetupRepeats; ++round) {
    tasks.clear();
    const Clock::time_point start = Clock::now();
    for (const cpclean::PaperDatasetSpec& spec : specs) {
      cpclean::ExperimentConfig config;
      config.dataset = spec;
      config.seed = kTaskSeed;
      config.k = kK;
      auto prepared = cpclean::PrepareExperiment(config, kernel);
      if (!prepared.ok()) {
        result.failures.push_back(spec.name + ": " +
                                  prepared.status().ToString());
        return result;
      }
      auto task = std::make_unique<Task>();
      task->name = spec.name;
      task->task = std::move(prepared.value().task);
      cpclean::CleaningSession session(&task->task, &kernel,
                                       SessionOptions());
      session.FracValCertain();
      tasks.push_back(std::move(task));
    }
    setup_s.push_back(MsSince(start) / 1e3);
  }

  // Untraced passes until --seconds have gone by (at least one).
  std::vector<double> step_ms, pass_s;
  std::vector<std::string> orders;
  double measured_s = 0.0;
  while (pass_s.empty() || measured_s < args.seconds) {
    pass_s.push_back(
        ConvergePass(tasks, kernel, &step_ms, &orders, &result, nullptr));
    measured_s += pass_s.back();
  }
  CheckOrders(tasks, orders, &result);

  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const TailStat tail = HighestTail(step_ms);
  AddMetric(&result.end_to_end, "setup_s", Median(setup_s));
  AddMetric(&result.end_to_end, "peak_rss_mb",
            static_cast<double>(usage.ru_maxrss) / 1024.0);
  AddMetric(&result.end_to_end, "throughput_per_s",
            static_cast<double>(step_ms.size()) / measured_s);
  // The plain median step. The time-weighted median, which follows the
  // steps the converge time goes to, is printed in the detail line: it
  // rests on the ~24 longest steps, and a burst of outside load over
  // them moved it by up to 28% in ten runs.
  AddMetric(&result.end_to_end, "typical_latency_ms", Median(step_ms));
  AddMetric(&result.end_to_end, "tail_latency_ms", tail.value);

  JsonValue figures = JsonValue::MakeObject();
  figures.Set("converge_s", JsonValue(Median(pass_s)));
  figures.Set("passes", JsonValue(static_cast<int>(pass_s.size())));
  figures.Set("clean_step_p50_ms", JsonValue(Median(step_ms)));
  figures.Set("clean_step_time_weighted_p50_ms",
              JsonValue(TimeWeightedPercentile(step_ms, 0.5)));
  figures.Set("clean_step_tail_ms", JsonValue(tail.value));
  figures.Set("clean_step_tail_quantile", JsonValue(tail.quantile));
  figures.Set("clean_step_samples",
              JsonValue(static_cast<uint64_t>(tail.samples)));
  result.detail.Set("figures", std::move(figures));
  if (!args.trace) return result;

  // The traced pass, on fresh sessions of the same tasks.
  std::vector<double> traced_steps;
  LayerSamples layers;
  const double traced_s = ConvergePass(tasks, kernel, &traced_steps, &orders,
                                       &result, &layers);
  CheckOrders(tasks, orders, &result);
  std::vector<Metric> traced;
  AddMetric(&traced, "throughput_per_s",
            static_cast<double>(traced_steps.size()) / traced_s);
  AddMetric(&traced, "typical_latency_ms", Median(traced_steps));
  AddMetric(&traced, "tail_latency_ms", HighestTail(traced_steps).value);

  AddPointLayers(layers, &result.per_layer);
  AddCleaningLayers(layers, &result.per_layer);
  for (const std::string& name : ServeLayerMetricNames()) {
    AddMetric(&result.per_layer, name, 0.0);  // this workload has no server
  }
  AddTraceOverhead(result.end_to_end, traced, &result.per_layer);
  return result;
}

}  // namespace perfbench
