#include "harness.h"

#include <algorithm>
#include <cmath>
#include <utility>

namespace perfbench {

using cpclean::JsonValue;

double Percentile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const double rank = std::ceil(q * static_cast<double>(samples.size()));
  const size_t index =
      rank < 1.0 ? 0 : std::min(samples.size(), static_cast<size_t>(rank)) - 1;
  return samples[index];
}

double TailQuantile(size_t n) {
  for (const double q : {0.99, 0.9}) {
    // Samples strictly beyond the nearest-rank percentile: n - ceil(q n).
    const size_t at =
        static_cast<size_t>(std::ceil(q * static_cast<double>(n) - 1e-9));
    if (n - at >= 10) return q;
  }
  return 0.5;
}

TailStat HighestTail(const std::vector<double>& samples) {
  TailStat tail;
  tail.samples = samples.size();
  tail.quantile = TailQuantile(samples.size());
  tail.value = Percentile(samples, tail.quantile);
  return tail;
}

double TimeWeightedPercentile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  double total = 0.0;
  for (const double s : samples) total += s;
  double running = 0.0;
  for (const double s : samples) {
    running += s;
    if (running >= q * total) return s;
  }
  return samples.back();
}

SlicedStats Sliced(const std::vector<TimedSample>& samples, double window_s,
                   double slice_s, double tail_q) {
  SlicedStats out;
  out.slices = std::max(1, static_cast<int>(std::lround(window_s / slice_s)));
  const double width = window_s / out.slices;
  std::vector<std::vector<double>> slices(static_cast<size_t>(out.slices));
  for (const TimedSample& s : samples) {
    const int i = std::min(out.slices - 1, static_cast<int>(s.at_s / width));
    slices[static_cast<size_t>(std::max(0, i))].push_back(s.ms);
  }
  std::vector<double> rates, p50s, tails;
  out.min_slice_samples = samples.size();
  out.tail.quantile = tail_q;
  for (const auto& slice : slices) {
    rates.push_back(static_cast<double>(slice.size()) / width);
    out.min_slice_samples = std::min(out.min_slice_samples, slice.size());
    if (slice.empty()) continue;
    p50s.push_back(Median(slice));
    tails.push_back(Percentile(slice, tail_q));
  }
  out.rate_per_s = Median(rates);
  out.p50_ms = Median(p50s);
  out.tail.value = Median(tails);
  out.tail.samples = samples.size();
  return out;
}

bool ValidMetricName(const std::string& name) {
  if (name.empty() || name.size() > 64) return false;
  const auto alnum = [](char c) {
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
           (c >= '0' && c <= '9');
  };
  if (!alnum(name[0])) return false;
  return std::all_of(name.begin(), name.end(), [&](char c) {
    return alnum(c) || c == '_' || c == '.' || c == '-';
  });
}

std::vector<std::vector<double>> GaussianPoints(uint64_t seed, int count,
                                                int dim) {
  cpclean::Rng rng(seed);
  std::vector<std::vector<double>> points(static_cast<size_t>(count));
  for (auto& point : points) {
    point.resize(static_cast<size_t>(dim));
    for (double& x : point) x = rng.NextGaussian();
  }
  return points;
}

RequestStream::RequestStream(uint64_t seed, int stream,
                             std::vector<OpShare> mix,
                             std::vector<TargetSession> sessions,
                             double hot_fraction)
    : rng_(seed * 0x9E3779B97F4A7C15ull + static_cast<uint64_t>(stream) + 1),
      mix_(std::move(mix)),
      sessions_(std::move(sessions)),
      hot_fraction_(hot_fraction) {
  for (const OpShare& share : mix_) weights_.push_back(share.weight);
}

ScheduledRequest RequestStream::Next() {
  ScheduledRequest request;
  request.op = rng_.NextCategorical(weights_);
  request.session =
      rng_.NextInt(0, static_cast<int>(sessions_.size()) - 1);
  const TargetSession& session =
      sessions_[static_cast<size_t>(request.session)];
  const bool hot_draw = rng_.NextBernoulli(hot_fraction_);
  if (hot_draw && mix_[static_cast<size_t>(request.op)].allow_hot &&
      !session.hot.empty()) {
    request.hot = true;
    request.point = session.hot[static_cast<size_t>(
        rng_.NextInt(0, static_cast<int>(session.hot.size()) - 1))];
  } else {
    request.point.resize(static_cast<size_t>(session.dim));
    for (double& x : request.point) x = rng_.NextGaussian();
  }
  return request;
}

std::string RequestStream::Line(const ScheduledRequest& request,
                                uint64_t id) const {
  const OpShare& share = mix_[static_cast<size_t>(request.op)];
  JsonValue line = JsonValue::MakeObject();
  line.Set("id", JsonValue(id));
  line.Set("op", JsonValue(share.op));
  line.Set("session",
           JsonValue(sessions_[static_cast<size_t>(request.session)].name));
  JsonValue points = JsonValue::MakeArray();
  points.Append(JsonValue::FromDoubles(request.point));
  line.Set("points", std::move(points));
  for (const auto& param : share.params) {
    line.Set(param.first, JsonValue(param.second));
  }
  return line.Dump();
}

const JsonValue* Outcomes::Record(const std::string& op,
                                  const std::string& line,
                                  JsonValue* parsed) {
  OpOutcome& outcome = ops_[op];
  ++outcome.sent;
  cpclean::Result<JsonValue> json =
      line.empty() ? cpclean::Result<JsonValue>(
                         cpclean::Status::IoError("no response"))
                   : cpclean::ParseJson(line);
  if (!json.ok() || !json.value().is_object()) {
    ++outcome.transport;
    return nullptr;
  }
  *parsed = std::move(json).value();
  const JsonValue* ok = parsed->Find("ok");
  if (ok != nullptr && ok->is_bool() && ok->bool_value()) {
    const JsonValue* result = parsed->Find("result");
    if (result != nullptr) {
      ++outcome.ok;
      return result;
    }
  }
  std::string code = "malformed";
  if (const JsonValue* error = parsed->Find("error")) {
    if (const JsonValue* c = error->Find("code"); c && c->is_string()) {
      code = c->string_value();
    }
  }
  if (code == "Unavailable") {
    ++outcome.refused;
  } else {
    ++outcome.errors[code];
  }
  return nullptr;
}

void Outcomes::RecordLocal(const std::string& op, bool ok) {
  OpOutcome& outcome = ops_[op];
  ++outcome.sent;
  if (ok) {
    ++outcome.ok;
  } else {
    ++outcome.errors["failed"];
  }
}

void Outcomes::Merge(const Outcomes& other) {
  for (const auto& [op, theirs] : other.ops_) {
    OpOutcome& mine = ops_[op];
    mine.sent += theirs.sent;
    mine.ok += theirs.ok;
    mine.refused += theirs.refused;
    mine.transport += theirs.transport;
    for (const auto& [code, n] : theirs.errors) mine.errors[code] += n;
  }
}

uint64_t Outcomes::attempted() const {
  uint64_t n = 0;
  for (const auto& entry : ops_) n += entry.second.sent;
  return n;
}

uint64_t Outcomes::failed() const {
  uint64_t n = 0;
  for (const auto& entry : ops_) n += entry.second.sent - entry.second.ok;
  return n;
}

JsonValue Outcomes::ToJson() const {
  JsonValue out = JsonValue::MakeObject();
  for (const auto& [op, o] : ops_) {
    JsonValue entry = JsonValue::MakeObject();
    entry.Set("sent", JsonValue(o.sent));
    entry.Set("ok", JsonValue(o.ok));
    JsonValue errors = JsonValue::MakeObject();
    for (const auto& [code, n] : o.errors) errors.Set(code, JsonValue(n));
    entry.Set("error", std::move(errors));
    entry.Set("refused", JsonValue(o.refused));
    entry.Set("transport", JsonValue(o.transport));
    out.Set(op, std::move(entry));
  }
  return out;
}

std::string ResultLine(bool correct, uint64_t attempted, uint64_t failed,
                       const std::vector<Metric>& metrics) {
  JsonValue out = JsonValue::MakeObject();
  out.Set("correct", JsonValue(correct));
  out.Set("attempted", JsonValue(attempted));
  out.Set("failed", JsonValue(failed));
  JsonValue values = JsonValue::MakeObject();
  for (const Metric& metric : metrics) {
    JsonValue entry = JsonValue::MakeObject();
    entry.Set("value", JsonValue(metric.value));
    entry.Set("unit", JsonValue(metric.unit));
    values.Set(metric.name, std::move(entry));
  }
  out.Set("metrics", std::move(values));
  return out.Dump();
}

}  // namespace perfbench
