// perfbench: the load generator behind BENCHMARK.json.
//
//   perfbench --workload {clean_converge|serve_read|serve_clean} --seed N
//             --seconds S --trace {0|1} --server PATH --work-dir DIR
//             [--commit SHA]
//
// Prints a stamp line (build, host, seed), a detail line (sessions,
// per-op figures, outcome accounting per op) and, last, the result line:
// {"correct", "attempted", "failed", "metrics"} with the end-to-end
// metrics (--trace 0) or the per-layer metrics (--trace 1). Exits 0 only
// when every request succeeded and every correctness check passed.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <utility>

#include "common/cpu_features.h"
#include "knn/kernel_simd.h"
#include "workloads.h"

namespace perfbench {
namespace {

using cpclean::JsonValue;

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE ""
#endif

struct CatalogueEntry {
  const char* name;
  const char* unit;
};

// The gated metrics. Each workload gives each one its own meaning; see
// WHERE_TIME_GOES.md for the table.
constexpr CatalogueEntry kEndToEnd[] = {
    {"setup_s", "s"},
    {"peak_rss_mb", "MiB"},
    {"throughput_per_s", "1/s"},
    {"typical_latency_ms", "ms"},
    {"tail_latency_ms", "ms"},
};

constexpr CatalogueEntry kPerLayer[] = {
    {"knn.score_us", "us"},
    {"knn.rows_scored", "count"},
    {"core.q2_us", "us"},
    {"core.q1_us", "us"},
    {"cleaning.step_ms", "ms"},
    {"cleaning.selection_ms", "ms"},
    {"cleaning.selection_pairs", "count"},
    {"cleaning.refresh_ms", "ms"},
    {"cleaning.step_residual_ms", "ms"},
    {"serve.transport_us", "us"},
    {"serve.queue_wait_us", "us"},
    {"serve.exec_us", "us"},
    {"serve.phase.cache_lookup_us", "us"},
    {"serve.phase.engine_acquire_us", "us"},
    {"serve.phase.kernel_compute_us", "us"},
    {"serve.phase.serialize_us", "us"},
    {"serve.phase.flush_us", "us"},
    {"serve.cache_hit_ratio", "ratio"},
    {"serve.cache_invalidations", "count"},
    {"serve.engine_reuse_ratio", "ratio"},
    {"serve.engine_rebinds", "count"},
    {"serve.coalesced", "count"},
    {"serve.store.save_us", "us"},
    {"serve.store.load_us", "us"},
    {"serve.store.saves", "count"},
    {"serve.store.loads", "count"},
    {"serve.store.compactions", "count"},
    {"incomplete.log_appended_bytes", "bytes"},
    {"incomplete.log_replayed_records", "count"},
    {"serve.store.bytes_on_disk", "bytes"},
    {"trace_overhead.throughput_per_s", "1/s"},
    {"trace_overhead.typical_latency_ms", "ms"},
    {"trace_overhead.tail_latency_ms", "ms"},
};

const char* UnitOf(const std::string& name) {
  for (const CatalogueEntry& e : kEndToEnd) {
    if (name == e.name) return e.unit;
  }
  for (const CatalogueEntry& e : kPerLayer) {
    if (name == e.name) return e.unit;
  }
  return nullptr;
}

/// Orders `metrics` as `catalogue` lists them; an error names any metric
/// that is missing, unknown, invalid or reported twice.
template <size_t N>
std::string Arrange(const CatalogueEntry (&catalogue)[N],
                    std::vector<Metric>* metrics) {
  std::vector<Metric> ordered;
  for (const CatalogueEntry& entry : catalogue) {
    int found = 0;
    for (const Metric& metric : *metrics) {
      if (metric.name == entry.name) {
        if (found++ == 0) ordered.push_back(metric);
      }
    }
    if (found != 1) {
      return std::string("metric ") + entry.name + " reported " +
             std::to_string(found) + " times";
    }
    if (!ValidMetricName(entry.name)) {
      return std::string("invalid metric name ") + entry.name;
    }
  }
  if (ordered.size() != metrics->size()) {
    return "a workload reported a metric outside the catalogue";
  }
  *metrics = std::move(ordered);
  return "";
}

int Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload W --seed N "
               "--seconds S --trace 0|1 --server PATH --work-dir DIR "
               "[--commit SHA]\n",
               why);
  return 2;
}

}  // namespace

void AddMetric(std::vector<Metric>* metrics, const std::string& name,
               double value) {
  const char* unit = UnitOf(name);
  metrics->push_back(Metric{name, value, unit != nullptr ? unit : "?"});
}

const std::vector<std::string>& ServeLayerMetricNames() {
  static const std::vector<std::string> names = [] {
    std::vector<std::string> out;
    for (const CatalogueEntry& e : kPerLayer) {
      const std::string name = e.name;
      if (name.rfind("serve.", 0) == 0 || name.rfind("incomplete.", 0) == 0) {
        out.push_back(name);
      }
    }
    return out;
  }();
  return names;
}

const std::vector<std::string>& CleaningLayerMetricNames() {
  static const std::vector<std::string> names = [] {
    std::vector<std::string> out;
    for (const CatalogueEntry& e : kPerLayer) {
      const std::string name = e.name;
      if (name.rfind("cleaning.", 0) == 0) out.push_back(name);
    }
    return out;
  }();
  return names;
}

void AddTraceOverhead(const std::vector<Metric>& untraced,
                      const std::vector<Metric>& traced,
                      std::vector<Metric>* per_layer) {
  for (const Metric& t : traced) {
    for (const Metric& u : untraced) {
      if (u.name != t.name) continue;
      const std::string name = "trace_overhead." + t.name;
      if (UnitOf(name) != nullptr) {
        AddMetric(per_layer, name, t.value - u.value);
      }
    }
  }
}

int Main(int argc, char** argv) {
  BenchArgs args;
  std::string commit = "unknown";
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), &end, 10);
      have_seed = end != value.c_str() && *end == '\0';
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), &end);
      have_seconds = end != value.c_str() && *end == '\0' && args.seconds > 0;
    } else if (flag == "--trace") {
      have_trace = value == "0" || value == "1";
      args.trace = value == "1";
    } else if (flag == "--server") {
      args.server = value;
    } else if (flag == "--work-dir") {
      args.work_dir = value;
    } else if (flag == "--commit") {
      commit = value;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  if (argc % 2 != 1) return Usage("every flag takes one value");
  if (!have_seed || !have_seconds || !have_trace) {
    return Usage("--seed, --seconds (> 0) and --trace 0|1 are required");
  }
  if (std::strcmp(PERFBENCH_BUILD_TYPE, "Release") != 0) {
    std::fprintf(stderr,
                 "perfbench: refusing to report from a \"%s\" build; "
                 "configure with -DCMAKE_BUILD_TYPE=Release\n",
                 PERFBENCH_BUILD_TYPE);
    return 2;
  }

  WorkloadResult result;
  if (args.workload == "clean_converge") {
    result = RunCleanConverge(args);
  } else if (args.workload == "serve_read" || args.workload == "serve_clean") {
    if (args.server.empty() || args.work_dir.empty()) {
      return Usage("serve workloads need --server and --work-dir");
    }
    result = args.workload == "serve_read" ? RunServeRead(args)
                                           : RunServeClean(args);
  } else {
    return Usage(("unknown workload " + args.workload).c_str());
  }

  std::vector<Metric>& metrics =
      args.trace ? result.per_layer : result.end_to_end;
  const std::string arranged =
      args.trace ? Arrange(kPerLayer, &metrics) : Arrange(kEndToEnd, &metrics);
  if (!arranged.empty()) result.failures.push_back(arranged);

  JsonValue stamp = JsonValue::MakeObject();
  stamp.Set("workload", JsonValue(args.workload));
  stamp.Set("seed", JsonValue(args.seed));
  stamp.Set("seconds", JsonValue(args.seconds));
  stamp.Set("trace", JsonValue(args.trace));
  stamp.Set("commit", JsonValue(commit));
  stamp.Set("build_type", JsonValue(PERFBENCH_BUILD_TYPE));
  stamp.Set("simd", JsonValue(cpclean::SimdLevelName(
                        cpclean::simd::ActiveSimdLevel())));
  stamp.Set("nproc",
            JsonValue(static_cast<int>(std::thread::hardware_concurrency())));
  JsonValue stamp_line = JsonValue::MakeObject();
  stamp_line.Set("stamp", std::move(stamp));
  std::printf("%s\n", stamp_line.Dump().c_str());

  result.detail.Set("outcomes", result.outcomes.ToJson());
  JsonValue failures = JsonValue::MakeArray();
  for (const std::string& f : result.failures) failures.Append(JsonValue(f));
  result.detail.Set("check_failures", std::move(failures));
  JsonValue detail_line = JsonValue::MakeObject();
  detail_line.Set("detail", std::move(result.detail));
  std::printf("%s\n", detail_line.Dump().c_str());
  for (const std::string& f : result.failures) {
    std::fprintf(stderr, "perfbench: check failed: %s\n", f.c_str());
  }

  const uint64_t failed = result.outcomes.failed();
  const bool correct = result.failures.empty() && failed == 0;
  const uint64_t attempted = std::max<uint64_t>(result.outcomes.attempted(), 1);
  std::printf("%s\n",
              ResultLine(correct, attempted, failed, metrics).c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
