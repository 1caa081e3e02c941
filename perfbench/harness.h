#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

// Helpers shared by the perfbench workloads: percentile rules, metric
// names, the seeded request schedule, outcome accounting and the result
// line. Everything here is deterministic and unit-tested by
// harness_test.cc.

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/rng.h"
#include "serve/json.h"

namespace perfbench {

// --- Time -------------------------------------------------------------------

using Clock = std::chrono::steady_clock;

inline double MsSince(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

// --- Statistics -------------------------------------------------------------

/// Nearest-rank percentile (`q` in [0, 1]) of `samples`; 0 when empty.
double Percentile(std::vector<double> samples, double q);

inline double Median(std::vector<double> samples) {
  return Percentile(std::move(samples), 0.5);
}

/// A tail percentile together with the evidence behind it.
struct TailStat {
  double quantile = 0.5;  // which percentile `value` is
  double value = 0.0;
  size_t samples = 0;     // sample count it was taken over
};

/// The highest of {p50, p90, p99} that leaves at least ten of `n` samples
/// beyond it (a p99 needs 1000 samples, a p90 100, a p50 20). Below 20
/// samples there is no such percentile and the median is returned.
double TailQuantile(size_t n);

/// That percentile of `samples`, with the sample count behind it.
TailStat HighestTail(const std::vector<double>& samples);

/// The time-weighted percentile: the smallest latency L such that samples
/// of at most L account for a share `q` of the summed latency. For a job
/// made of steps of very different sizes it says which steps the time goes
/// to, and it is dominated by the long steps rather than by the noisy
/// sub-millisecond wake-ups of the short ones.
double TimeWeightedPercentile(std::vector<double> samples, double q);

/// A latency sample stamped with when it completed, in seconds from the
/// start of the measured window.
struct TimedSample {
  double at_s = 0.0;
  double ms = 0.0;
};

/// Figures over a window cut into equal slices of about `slice_s`
/// seconds. Each figure is the median across slices of the per-slice
/// figure, so a burst of outside load that hits a few slices moves none of
/// them. The tail is the `tail_q` percentile of each slice; a workload
/// fixes it so that its slices hold enough samples for HighestTail's rule
/// (and the quantile cannot flip between runs as the rate moves).
struct SlicedStats {
  double rate_per_s = 0.0;
  double p50_ms = 0.0;
  TailStat tail;  // quantile, median of slice tails, total samples
  int slices = 0;
  size_t min_slice_samples = 0;
};
SlicedStats Sliced(const std::vector<TimedSample>& samples, double window_s,
                   double slice_s, double tail_q);

/// Metric names: 1 to 64 of [A-Za-z0-9_.-], starting with a letter or digit.
bool ValidMetricName(const std::string& name);

// --- Seeded request schedule ------------------------------------------------

/// One read op of a closed-loop mix and its share of the requests.
struct OpShare {
  std::string op;
  double weight = 1.0;
  /// Extra request parameters, e.g. {"max_cleaned", 4} for certify.
  std::map<std::string, int> params;
  /// May this op draw its point from the hot set?
  bool allow_hot = true;
};

/// A session the schedule targets.
struct TargetSession {
  std::string name;
  int dim = 0;
  std::vector<std::vector<double>> hot;  // the session's hot points
};

/// One generated request.
struct ScheduledRequest {
  int op = 0;       // index into the mix
  int session = 0;  // index into the sessions
  bool hot = false;
  std::vector<double> point;
};

/// `count` seeded Gaussian points of dimension `dim`.
std::vector<std::vector<double>> GaussianPoints(uint64_t seed, int count,
                                                int dim);

/// The seeded request stream of one connection: an op drawn by weight, a
/// session drawn uniformly, and a point that is hot (drawn from the
/// session's hot set) with probability `hot_fraction` when the op allows
/// it, else a fresh standard-Gaussian point that no cache has seen. The
/// same (seed, stream) gives the same sequence on every host.
class RequestStream {
 public:
  RequestStream(uint64_t seed, int stream, std::vector<OpShare> mix,
                std::vector<TargetSession> sessions, double hot_fraction);

  ScheduledRequest Next();

  /// The wire line for `request` (no trailing newline), numbered `id`.
  std::string Line(const ScheduledRequest& request, uint64_t id) const;

  const std::vector<OpShare>& mix() const { return mix_; }
  const std::vector<TargetSession>& sessions() const { return sessions_; }

 private:
  cpclean::Rng rng_;
  std::vector<OpShare> mix_;
  std::vector<TargetSession> sessions_;
  std::vector<double> weights_;
  double hot_fraction_;
};

// --- Outcome accounting -----------------------------------------------------

/// Per-op request outcomes. Every request sent lands in exactly one of
/// ok / error / refused / transport.
struct OpOutcome {
  uint64_t sent = 0;
  uint64_t ok = 0;
  uint64_t refused = 0;    // structured `Unavailable` answers
  uint64_t transport = 0;  // no parseable answer (connection lost, timeout)
  std::map<std::string, uint64_t> errors;  // other error codes
};

class Outcomes {
 public:
  /// Classifies one response line (empty = transport failure). Returns
  /// the parsed `result` object when the request succeeded.
  const cpclean::JsonValue* Record(const std::string& op,
                                   const std::string& line,
                                   cpclean::JsonValue* parsed);
  /// Counts one in-process library call (no wire, so no transport leg).
  void RecordLocal(const std::string& op, bool ok);
  void Merge(const Outcomes& other);

  uint64_t attempted() const;
  uint64_t failed() const;
  cpclean::JsonValue ToJson() const;

 private:
  std::map<std::string, OpOutcome> ops_;
};

// --- Result line ------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// The result line, the last line of stdout: {"correct", "attempted",
/// "failed", "metrics": {name: {"value", "unit"}}}.
std::string ResultLine(bool correct, uint64_t attempted, uint64_t failed,
                       const std::vector<Metric>& metrics);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
