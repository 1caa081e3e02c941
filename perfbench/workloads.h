#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "harness.h"
#include "serve/json.h"

namespace perfbench {

struct BenchArgs {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string server;    // path of the cpclean_server binary
  std::string work_dir;  // scratch space inside the checkout
};

/// What one run of a workload produced.
struct WorkloadResult {
  /// Failed checks, in words; empty means every check passed.
  std::vector<std::string> failures;
  Outcomes outcomes;
  /// The gated metrics (every run) and the per-layer ones (traced runs).
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;
  /// Sessions, the per-op figures behind the gated metrics, and anything
  /// else a reader of the run needs; printed ahead of the result line.
  cpclean::JsonValue detail = cpclean::JsonValue::MakeObject();
};

WorkloadResult RunCleanConverge(const BenchArgs& args);
WorkloadResult RunServeRead(const BenchArgs& args);
WorkloadResult RunServeClean(const BenchArgs& args);

/// Names of the serve-side per-layer metrics, which the library-only
/// workload reports as 0 (it starts no server).
const std::vector<std::string>& ServeLayerMetricNames();

/// The per-layer metrics of the cleaning loop, reported as 0 by serve_read
/// (it cleans nothing).
const std::vector<std::string>& CleaningLayerMetricNames();

/// Appends `name` = `value` to `metrics`, with the unit the metric
/// catalogue (main.cc) gives it.
void AddMetric(std::vector<Metric>* metrics, const std::string& name,
               double value);

/// The per-layer metric `trace_overhead.<m>` for every traced end-to-end
/// metric `m`: the traced value minus the untraced one.
void AddTraceOverhead(const std::vector<Metric>& untraced,
                      const std::vector<Metric>& traced,
                      std::vector<Metric>* per_layer);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
