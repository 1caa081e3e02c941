// Self-tests of the benchmark's helpers. run.py runs them before every
// measurement; a failure stops the run.

#include <cstdio>
#include <string>
#include <vector>

#include "harness.h"

namespace perfbench {
namespace {

int failures = 0;

void Expect(bool ok, const std::string& what) {
  if (!ok) {
    ++failures;
    std::fprintf(stderr, "FAIL: %s\n", what.c_str());
  }
}

std::vector<double> OneTo(int n) {
  std::vector<double> out;
  for (int i = n; i >= 1; --i) out.push_back(i);  // unsorted on purpose
  return out;
}

void TestPercentileRule() {
  Expect(Percentile(OneTo(100), 0.5) == 50, "p50 of 1..100 is 50");
  Expect(Percentile(OneTo(100), 0.9) == 90, "p90 of 1..100 is 90");
  Expect(Percentile({}, 0.5) == 0, "percentile of nothing is 0");

  struct Case {
    int n;
    double quantile;
  };
  // The highest of p50/p90/p99 that leaves at least ten samples beyond.
  for (const Case c : {Case{1000, 0.99}, Case{999, 0.9}, Case{100, 0.9},
                       Case{99, 0.5}, Case{20, 0.5}, Case{5, 0.5}}) {
    const TailStat tail = HighestTail(OneTo(c.n));
    Expect(tail.quantile == c.quantile,
           "tail quantile for n=" + std::to_string(c.n));
    Expect(tail.samples == static_cast<size_t>(c.n),
           "tail sample count for n=" + std::to_string(c.n));
    Expect(tail.value == Percentile(OneTo(c.n), c.quantile),
           "tail value for n=" + std::to_string(c.n));
    const double beyond = c.n - tail.value;
    Expect(c.n < 20 || beyond >= 10,
           "ten samples beyond the tail for n=" + std::to_string(c.n));
  }
  Expect(HighestTail(OneTo(1000)).value == 990, "p99 of 1..1000 is 990");

  // Time-weighted: 1..100 sums to 5050; 1..71 is the first prefix to reach
  // half of it (1..70 sums to 2485, 1..71 to 2556).
  Expect(TimeWeightedPercentile(OneTo(100), 0.5) == 71,
         "time-weighted median of 1..100 is 71");
  Expect(TimeWeightedPercentile({}, 0.5) == 0, "time-weighted of nothing");
}

void TestSlicedMedians() {
  // Ten one-second slices of 100 samples each; slice 3 is a burst of slow
  // samples and slice 7 is nearly empty. Neither moves the medians.
  std::vector<TimedSample> samples;
  for (int slice = 0; slice < 10; ++slice) {
    const int n = slice == 7 ? 5 : 100;
    for (int i = 0; i < n; ++i) {
      const double ms = slice == 3 ? 1000.0 : 1.0 + i * 0.01;
      samples.push_back(TimedSample{slice + (i + 0.5) / n, ms});
    }
  }
  const SlicedStats stats = Sliced(samples, 10.0, 1.0, 0.9);
  Expect(stats.slices == 10, "ten slices");
  Expect(stats.rate_per_s == 100, "median slice rate is 100/s");
  Expect(stats.p50_ms == 1.0 + 49 * 0.01, "median of slice medians");
  Expect(stats.tail.quantile == 0.9, "the workload's tail quantile");
  Expect(stats.tail.value == 1.0 + 89 * 0.01, "median of slice p90s");
  Expect(stats.min_slice_samples == 5, "thinnest slice is reported");
  Expect(stats.tail.samples == samples.size(), "total sample count");
}

std::vector<std::string> Lines(uint64_t seed, int stream, int count) {
  std::vector<TargetSession> sessions = {
      {"small", 3, GaussianPoints(seed, 4, 3)},
      {"large", 5, GaussianPoints(seed + 1, 4, 5)}};
  RequestStream requests(seed, stream,
                         {{"q2", 0.6, {}, true},
                          {"certify", 0.4, {{"max_cleaned", 4}}, false}},
                         sessions, 0.5);
  std::vector<std::string> out;
  for (int i = 0; i < count; ++i) {
    out.push_back(requests.Line(requests.Next(), static_cast<uint64_t>(i)));
  }
  return out;
}

void TestScheduleReproducibility() {
  const std::vector<std::string> a = Lines(7, 0, 500);
  Expect(a == Lines(7, 0, 500), "same seed, same request stream");
  Expect(a != Lines(8, 0, 500), "another seed, another request stream");
  Expect(a != Lines(7, 1, 500), "another connection, another request stream");
  for (const std::string& line : a) {
    const bool is_certify = line.find("\"certify\"") != std::string::npos;
    const bool has_param = line.find("max_cleaned") != std::string::npos;
    Expect(is_certify == has_param, "op parameters ride only on their op");
  }
  // Hot draws come from the session's set, and only for ops that allow it.
  std::vector<TargetSession> sessions = {{"s", 2, GaussianPoints(1, 3, 2)}};
  RequestStream requests(3, 0, {{"q2", 1, {}, true}, {"explain", 1, {}, false}},
                         sessions, 0.5);
  int hot_draws = 0;
  for (int i = 0; i < 1000; ++i) {
    const ScheduledRequest r = requests.Next();
    if (!r.hot) continue;
    ++hot_draws;
    Expect(r.op == 0, "only q2 draws hot points");
    bool in_set = false;
    for (const auto& p : sessions[0].hot) in_set = in_set || p == r.point;
    Expect(in_set, "a hot point comes from the hot set");
  }
  Expect(hot_draws > 150 && hot_draws < 350,
         "about a quarter of draws are hot");
}

void TestMetricNames() {
  for (const char* ok : {"setup_s", "latency_p50_ms", "serve.phase.flush_us",
                         "knn.rows_scored", "9lives", "a-b"}) {
    Expect(ValidMetricName(ok), std::string("valid name ") + ok);
  }
  for (const char* bad : {"", ".hidden", "_x", "has space", "a/b", "µs",
                          "x\"y"}) {
    Expect(!ValidMetricName(bad), std::string("invalid name ") + bad);
  }
  Expect(ValidMetricName(std::string(64, 'a')), "64 letters are allowed");
  Expect(!ValidMetricName(std::string(65, 'a')), "65 letters are not");
}

}  // namespace
}  // namespace perfbench

int main() {
  perfbench::TestPercentileRule();
  perfbench::TestSlicedMedians();
  perfbench::TestScheduleReproducibility();
  perfbench::TestMetricNames();
  if (perfbench::failures != 0) {
    std::fprintf(stderr, "perfbench_selftest: %d failures\n",
                 perfbench::failures);
    return 1;
  }
  std::fprintf(stderr, "perfbench_selftest: all checks passed\n");
  return 0;
}
