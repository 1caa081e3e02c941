// serve_read and serve_clean: the shipped cpclean_server driven over
// loopback TCP from this process, in a closed loop: each connection sends
// its next request when the previous answer arrives. Each workload keeps
// the threads it makes busy (client, poller, request workers, pool) below
// the 4 cores of the host it was tuned on, so outside load on a shared
// host does not turn the measured latencies into scheduler queueing.

#include <atomic>
#include <cstring>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <unistd.h>
#include <utility>

#include "cleaning/cp_clean.h"
#include "common/thread_pool.h"
#include "core/certain_predictor.h"
#include "core/fast_q2.h"
#include "knn/kernel.h"
#include "probes.h"
#include "serve/session_store.h"
#include "server_client.h"
#include "workloads.h"

namespace perfbench {
namespace {

namespace fs = std::filesystem;
using cpclean::JsonValue;
using cpclean::Result;
using cpclean::Status;

constexpr int kK = 3;
constexpr int kSetupRepeats = 3;
constexpr int kHotPoints = 16;
/// Every kCheckEvery-th request of a connection is kept for the
/// bit-identity check against the library, up to kMaxChecks per connection.
constexpr uint64_t kCheckEvery = 16;
constexpr size_t kMaxChecks = 64;
/// Points per session for the knn/core probes of a traced run.
constexpr size_t kProbePoints = 64;

struct SessionSpec {
  std::string name;
  std::string dataset;
  int train_rows;
};

JsonValue SpecJson(const SessionSpec& spec) {
  JsonValue out = JsonValue::MakeObject();
  out.Set("source", JsonValue("paper"));
  out.Set("dataset", JsonValue(spec.dataset));
  out.Set("train_rows", JsonValue(spec.train_rows));
  out.Set("val_size", JsonValue(60));
  out.Set("test_size", JsonValue(300));
  out.Set("seed", JsonValue(3));
  out.Set("k", JsonValue(kK));
  return out;
}

JsonValue Request(const std::string& op, const std::string& session) {
  JsonValue out = JsonValue::MakeObject();
  out.Set("op", JsonValue(op));
  if (!session.empty()) out.Set("session", JsonValue(session));
  return out;
}

double Number(const JsonValue* object, const std::string& key) {
  const JsonValue* v = object != nullptr ? object->Find(key) : nullptr;
  return v != nullptr && v->is_number() ? v->number_value() : 0.0;
}

/// A started server with its sessions created, plus a control connection.
struct LiveServer {
  std::unique_ptr<ServerProcess> process;
  std::unique_ptr<LineClient> control;
  std::map<std::string, int> dims;  // per session, from create_session
};

/// Starts the server and creates `sessions` in order. Set-up time is the
/// wall time of both.
Result<LiveServer> StartServer(const BenchArgs& args,
                               const std::vector<std::string>& flags,
                               const std::string& dir,
                               const std::vector<SessionSpec>& sessions,
                               double* setup_s) {
  LiveServer live;
  const Clock::time_point start = Clock::now();
  CP_ASSIGN_OR_RETURN(live.process, ServerProcess::Start(args.server, flags,
                                                         dir + "/server.log"));
  CP_ASSIGN_OR_RETURN(live.control, LineClient::Connect(live.process->port()));
  for (const SessionSpec& spec : sessions) {
    JsonValue create = SpecJson(spec);
    create.Set("op", JsonValue("create_session"));
    create.Set("session", JsonValue(spec.name));
    CP_ASSIGN_OR_RETURN(const JsonValue created,
                        Call(live.control.get(), create));
    live.dims[spec.name] = static_cast<int>(Number(&created, "dim"));
  }
  *setup_s = MsSince(start) / 1e3;
  return live;
}

/// Sets up `rounds` times (each on a fresh server and data directory) and
/// keeps the last; returns the median set-up time.
Result<LiveServer> SetUp(const BenchArgs& args,
                         const std::vector<std::string>& flags,
                         const std::string& dir,
                         const std::vector<SessionSpec>& sessions, int rounds,
                         double* setup_median_s) {
  std::vector<double> times;
  Result<LiveServer> live = Status::Internal("no set-up round ran");
  for (int round = 0; round < rounds; ++round) {
    if (live.ok()) live.value().process->Stop();
    fs::remove_all(dir + "/data");
    fs::create_directories(dir + "/data");
    double seconds = 0.0;
    live = StartServer(args, flags, dir, sessions, &seconds);
    if (!live.ok()) return live;
    times.push_back(seconds);
  }
  *setup_median_s = Median(times);
  return live;
}

/// A response kept for the bit-identity check.
struct Checked {
  std::string session;
  std::string op;
  std::vector<double> point;
  JsonValue result;  // results[0] of the response
};

/// One request's latency and what kind of request it was.
struct Sample {
  int op;
  int session;
  bool hot;
  double ms;
  double at_s;  // completion, in seconds from the window's start
};

struct ConnectionLog {
  Outcomes outcomes;
  std::vector<Sample> samples;
  std::vector<Checked> checks;
};

/// A closed-loop reader: sends its stream's requests until `stop`.
void ReaderLoop(int port, RequestStream stream, Clock::time_point start,
                const std::atomic<bool>* stop, ConnectionLog* log) {
  Result<std::unique_ptr<LineClient>> client = LineClient::Connect(port);
  if (!client.ok()) {
    log->outcomes.Record("connect", "", nullptr);
    return;
  }
  for (uint64_t id = 1; !stop->load(std::memory_order_relaxed); ++id) {
    const ScheduledRequest request = stream.Next();
    const std::string& op = stream.mix()[static_cast<size_t>(request.op)].op;
    const std::string line = stream.Line(request, id);
    const Clock::time_point t = Clock::now();
    const std::string response = client.value()->RoundTrip(line);
    const double ms = MsSince(t);
    JsonValue parsed;
    const JsonValue* result = log->outcomes.Record(op, response, &parsed);
    if (result == nullptr) {
      if (response.empty()) return;  // the connection is gone
      continue;
    }
    log->samples.push_back(Sample{request.op, request.session, request.hot, ms,
                                  MsSince(start) / 1e3});
    const JsonValue* results = result->Find("results");
    if (id % kCheckEvery == 0 && log->checks.size() < kMaxChecks &&
        results != nullptr && results->is_array() &&
        results->array().size() == 1) {
      log->checks.push_back(Checked{
          stream.sessions()[static_cast<size_t>(request.session)].name, op,
          request.point, results->array()[0]});
    }
  }
}

/// Runs `readers` closed-loop connections until `until()` holds.
template <typename Until>
double RunReaders(int port, const std::vector<RequestStream>& streams,
                  Until until, std::vector<ConnectionLog>* logs) {
  std::atomic<bool> stop{false};
  logs->assign(streams.size(), ConnectionLog{});
  std::vector<std::thread> threads;
  const Clock::time_point start = Clock::now();
  for (size_t i = 0; i < streams.size(); ++i) {
    threads.emplace_back(ReaderLoop, port, streams[i], start, &stop,
                         &(*logs)[i]);
  }
  while (!until(MsSince(start) / 1e3)) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  stop.store(true);
  for (std::thread& t : threads) t.join();
  return MsSince(start) / 1e3;
}

/// Bit-identity of a served q2/predict answer with the library's answer on
/// `dataset` (the session's working dataset at the answer's version).
bool MatchesLibrary(const Checked& check,
                    const cpclean::IncompleteDataset& dataset,
                    const cpclean::SimilarityKernel& kernel) {
  if (check.op == "q2") {
    cpclean::FastQ2 engine(&dataset, kK);
    engine.SetTestPoint(check.point, kernel);
    const std::vector<double> expected = engine.Fractions();
    const JsonValue* probs = check.result.Find("probs");
    if (probs == nullptr || !probs->is_array() ||
        probs->array().size() != expected.size()) {
      return false;
    }
    for (size_t i = 0; i < expected.size(); ++i) {
      const double served = probs->array()[i].number_value();
      if (std::memcmp(&served, &expected[i], sizeof(double)) != 0) {
        return false;
      }
    }
    return true;
  }
  if (check.op == "predict") {
    const cpclean::CertainPredictor predictor(&kernel, kK);
    const int label = predictor.Check(dataset, check.point).CertainLabel();
    const JsonValue* certain = check.result.Find("certain");
    return certain != nullptr && certain->is_bool() &&
           certain->bool_value() == (label >= 0) &&
           Number(&check.result, "label") == label;
  }
  return true;  // other ops are not checked against the library
}

// --- Server-side counters for traced runs ----------------------------------

/// A `metrics` snapshot: counters and histogram (count, sum) pairs.
struct CounterSnapshot {
  std::map<std::string, double> counters;
  std::map<std::string, std::pair<double, double>> histograms;
};

Result<CounterSnapshot> Scrape(LineClient* client) {
  CP_ASSIGN_OR_RETURN(const JsonValue metrics,
                      Call(client, Request("metrics", "")));
  CounterSnapshot out;
  if (const JsonValue* counters = metrics.Find("counters")) {
    for (const auto& [name, value] : counters->object()) {
      out.counters[name] = value.number_value();
    }
  }
  if (const JsonValue* histograms = metrics.Find("histograms")) {
    for (const auto& [name, h] : histograms->object()) {
      out.histograms[name] = {Number(&h, "count"), Number(&h, "sum_ns")};
    }
  }
  return out;
}

double Delta(const CounterSnapshot& before, const CounterSnapshot& after,
             const std::string& counter) {
  const auto a = after.counters.find(counter);
  const auto b = before.counters.find(counter);
  return (a == after.counters.end() ? 0.0 : a->second) -
         (b == before.counters.end() ? 0.0 : b->second);
}

/// Mean of a histogram over the interval, in microseconds.
double MeanUs(const CounterSnapshot& before, const CounterSnapshot& after,
              const std::string& histogram) {
  const auto a = after.histograms.find(histogram);
  if (a == after.histograms.end()) return 0.0;
  const auto b = before.histograms.find(histogram);
  const double count =
      a->second.first - (b == before.histograms.end() ? 0 : b->second.first);
  const double sum =
      a->second.second - (b == before.histograms.end() ? 0 : b->second.second);
  return count > 0 ? sum / count / 1e3 : 0.0;
}

double Ratio(double part, double whole) { return whole > 0 ? part / whole : 0; }

/// Polls `metrics` every 50 ms until `stop`, keeping the request spans
/// completed since the previous poll (at most the ring's 256).
void PollSpans(int port, const std::atomic<bool>* stop,
               std::vector<JsonValue>* spans_out) {
  Result<std::unique_ptr<LineClient>> client = LineClient::Connect(port);
  if (!client.ok()) return;
  double last_requests = -1.0;
  while (!stop->load()) {
    Result<JsonValue> metrics =
        Call(client.value().get(), Request("metrics", ""));
    if (!metrics.ok()) return;
    const double requests =
        Number(metrics.value().Find("counters"), "serve.requests_total");
    const JsonValue* spans = metrics.value().Find("spans");
    if (spans != nullptr && spans->is_array() && last_requests >= 0) {
      const size_t fresh = std::min(
          spans->array().size(),
          static_cast<size_t>(std::max(0.0, requests - last_requests)));
      for (size_t i = spans->array().size() - fresh;
           i < spans->array().size(); ++i) {
        const JsonValue& span = spans->array()[i];
        const JsonValue* op = span.Find("op");
        if (op != nullptr && op->is_string() &&
            op->string_value() != "metrics") {
          spans_out->push_back(span);
        }
      }
    }
    last_requests = requests;
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
}

/// The serve.* per-layer metrics of a traced window.
void AddServeLayers(const CounterSnapshot& before, const CounterSnapshot& after,
                    const std::vector<JsonValue>& spans, double hot_rtt_ms,
                    const std::string& data_dir, std::vector<Metric>* out) {
  std::map<std::string, std::vector<double>> phases;
  std::vector<double> hit_totals;
  for (const JsonValue& span : spans) {
    const JsonValue* p = span.Find("phases");
    if (p == nullptr) continue;
    // Each phase's median is over the spans it ran in: a cache hit has no
    // kernel_compute, a predict no engine_acquire.
    for (const auto& [phase, ns] : p->object()) {
      if (ns.number_value() > 0) {
        phases[phase].push_back(ns.number_value() / 1e3);
      }
    }
    const std::string op = span.Find("op")->string_value();
    if ((op == "q2" || op == "predict") && Number(p, "kernel_compute") == 0) {
      hit_totals.push_back(Number(&span, "total_ns") / 1e3);
    }
  }
  AddMetric(out, "serve.transport_us",
            hit_totals.empty() ? 0.0 : hot_rtt_ms * 1e3 - Median(hit_totals));
  AddMetric(out, "serve.queue_wait_us",
            MeanUs(before, after, "serve.queue_wait_ns"));
  AddMetric(out, "serve.exec_us", MeanUs(before, after, "serve.exec_ns"));
  for (const char* phase : {"cache_lookup", "engine_acquire", "kernel_compute",
                            "serialize", "flush"}) {
    AddMetric(out, std::string("serve.phase.") + phase + "_us",
              Median(phases[phase]));
  }
  const double hits = Delta(before, after, "serve.cache_hits_total");
  const double misses = Delta(before, after, "serve.cache_misses_total");
  AddMetric(out, "serve.cache_hit_ratio", Ratio(hits, hits + misses));
  AddMetric(out, "serve.cache_invalidations",
            Delta(before, after, "serve.cache_invalidations_total"));
  const double reused = Delta(before, after, "engine_pool.hits_total");
  const double rebinds = Delta(before, after, "engine_pool.rebinds_total");
  const double created = Delta(before, after, "engine_pool.misses_total");
  AddMetric(out, "serve.engine_reuse_ratio",
            Ratio(reused, reused + rebinds + created));
  AddMetric(out, "serve.engine_rebinds", rebinds);
  AddMetric(out, "serve.coalesced",
            Delta(before, after, "serve.coalesce_hits_total"));
  AddMetric(out, "serve.store.save_us", MeanUs(before, after, "store.save_ns"));
  AddMetric(out, "serve.store.load_us", MeanUs(before, after, "store.load_ns"));
  AddMetric(out, "serve.store.saves",
            Delta(before, after, "store.saves_total"));
  AddMetric(out, "serve.store.loads",
            Delta(before, after, "store.loads_total"));
  AddMetric(out, "serve.store.compactions",
            Delta(before, after, "store.compactions"));
  AddMetric(out, "incomplete.log_appended_bytes",
            Delta(before, after, "store.log_appended_bytes"));
  AddMetric(out, "incomplete.log_replayed_records",
            Delta(before, after, "store.log_replayed_records"));
  double bytes = 0.0;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(data_dir, ec)) {
    if (entry.is_regular_file()) {
      bytes += static_cast<double>(entry.file_size());
    }
  }
  AddMetric(out, "serve.store.bytes_on_disk", bytes);
}

/// Stops the server; one that does not drain and exit 0 on SIGTERM fails
/// the run.
void StopServer(ServerProcess* server, WorkloadResult* result) {
  if (!server->Stop()) {
    result->failures.push_back("cpclean_server did not exit cleanly");
  }
}

/// The run's scratch directory inside the checkout, removed on exit.
struct RunDir {
  explicit RunDir(const BenchArgs& args)
      : path(args.work_dir + "/" + args.workload + "-" +
             std::to_string(getpid())) {
    fs::remove_all(path);
    fs::create_directories(path);
  }
  ~RunDir() {
    std::error_code ec;
    fs::remove_all(path, ec);
  }
  RunDir(const RunDir&) = delete;
  RunDir& operator=(const RunDir&) = delete;
  std::string path;
};

/// The samples of `op` (-1: any) that were hot (1), fresh (0) or either
/// (-1), on session index `session` (-1: any).
std::vector<TimedSample> Select(const std::vector<ConnectionLog>& logs, int op,
                                int hot, int session = -1) {
  std::vector<TimedSample> out;
  for (const ConnectionLog& log : logs) {
    for (const Sample& s : log.samples) {
      if ((op < 0 || s.op == op) && (hot < 0 || s.hot == (hot == 1)) &&
          (session < 0 || s.session == session)) {
        out.push_back(TimedSample{s.at_s, s.ms});
      }
    }
  }
  return out;
}

std::vector<double> Latencies(const std::vector<ConnectionLog>& logs, int op,
                              int hot, int session = -1) {
  std::vector<double> out;
  for (const TimedSample& s : Select(logs, op, hot, session)) {
    out.push_back(s.ms);
  }
  return out;
}

/// Select()'s samples in one-second slices. serve_read completes ~4000
/// reads/s, so each slice holds ~400 samples beyond its p90. (The p99
/// moves with every scheduler hiccup of a shared host; it is reported in
/// the detail line.)
SlicedStats SlicedLatencies(const std::vector<ConnectionLog>& logs, int op,
                            int hot, int session, double window_s) {
  return Sliced(Select(logs, op, hot, session), window_s, 1.0, 0.9);
}

JsonValue SessionFacts(const SessionSpec& spec,
                       const cpclean::CleaningTask& task) {
  JsonValue s = JsonValue::MakeObject();
  s.Set("session", JsonValue(spec.name));
  s.Set("dataset", JsonValue(spec.dataset));
  s.Set("train_rows", JsonValue(task.incomplete.num_examples()));
  s.Set("dim", JsonValue(task.incomplete.dim()));
  s.Set("slab_bytes", JsonValue(SlabBytes(task.incomplete)));
  return s;
}

Result<std::unique_ptr<cpclean::CleaningTask>> BuildTwin(
    const SessionSpec& spec) {
  CP_ASSIGN_OR_RETURN(cpclean::CleaningTask task,
                      cpclean::BuildTaskFromSpec(SpecJson(spec)));
  return std::make_unique<cpclean::CleaningTask>(std::move(task));
}

// --- serve_read --------------------------------------------------------------

/// Two sessions that straddle a core's 2 MiB L2: the Supreme analog at 600
/// training rows (candidate slab ~0.6 MB) and the Puma analog at 4000
/// (~4 MB).
const std::vector<SessionSpec> kReadSessions = {
    {"supreme600", "Supreme", 600},
    {"puma4000", "Puma", 4000},
};
constexpr int kPumaIndex = 1;
/// Two, not four: with four closed-loop connections every core was busy
/// and the read rate swung with the host's other tenants.
constexpr int kReadConnections = 2;

/// One measured window of serve_read on `live`.
struct ReadWindow {
  double seconds = 0.0;
  std::vector<ConnectionLog> logs;
};

ReadWindow RunReadWindow(const BenchArgs& args, LiveServer* live,
                         uint64_t seed,
                         const std::vector<TargetSession>& targets) {
  ReadWindow window;
  const std::vector<OpShare> mix = {{"q2", 0.6, {}, true},
                                    {"predict", 0.4, {}, true}};
  std::vector<RequestStream> streams;
  for (int c = 0; c < kReadConnections; ++c) {
    streams.emplace_back(seed, c, mix, targets, 0.5);
  }
  window.seconds = RunReaders(
      live->process->port(), streams,
      [&](double elapsed) { return elapsed >= args.seconds; }, &window.logs);
  return window;
}

}  // namespace

WorkloadResult RunServeRead(const BenchArgs& args) {
  WorkloadResult result;
  RunDir dir(args);
  const std::vector<std::string> flags = {"--threads=4"};
  double setup_s = 0.0;
  Result<LiveServer> live =
      SetUp(args, flags, dir.path, kReadSessions, kSetupRepeats, &setup_s);
  if (!live.ok()) {
    result.failures.push_back("set-up: " + live.status().ToString());
    return result;
  }

  // Hot sets: kHotPoints per session, warmed into the result cache (both
  // ops) before the window so hot requests measure cache hits.
  std::vector<TargetSession> targets;
  for (size_t s = 0; s < kReadSessions.size(); ++s) {
    const std::string& name = kReadSessions[s].name;
    const int dim = live.value().dims[name];
    targets.push_back(TargetSession{
        name, dim, GaussianPoints(args.seed * 1000 + s, kHotPoints, dim)});
    for (const auto& point : targets.back().hot) {
      for (const char* op : {"q2", "predict"}) {
        JsonValue warm = Request(op, name);
        JsonValue points = JsonValue::MakeArray();
        points.Append(JsonValue::FromDoubles(point));
        warm.Set("points", std::move(points));
        const Result<JsonValue> answer = Call(live.value().control.get(), warm);
        result.outcomes.RecordLocal(std::string("warm_") + op, answer.ok());
      }
    }
  }

  ReadWindow window = RunReadWindow(args, &live.value(), args.seed, targets);
  for (const ConnectionLog& log : window.logs) {
    result.outcomes.Merge(log.outcomes);
  }
  const double peak_rss_mb = live.value().process->PeakRssMb();

  // Gated figures are medians over one-second slices of the window. The
  // typical latency is fresh q2 on puma4000 alone: pooled over both
  // sessions, the median would sit between their two modes.
  const SlicedStats reads = SlicedLatencies(window.logs, -1, -1, -1,
                                            window.seconds);
  const SlicedStats q2_fresh = SlicedLatencies(window.logs, 0, 0, kPumaIndex,
                                               window.seconds);
  AddMetric(&result.end_to_end, "setup_s", setup_s);
  AddMetric(&result.end_to_end, "peak_rss_mb", peak_rss_mb);
  AddMetric(&result.end_to_end, "throughput_per_s", reads.rate_per_s);
  AddMetric(&result.end_to_end, "typical_latency_ms", q2_fresh.p50_ms);
  AddMetric(&result.end_to_end, "tail_latency_ms", reads.tail.value);

  const TailStat tail = HighestTail(Latencies(window.logs, -1, -1));
  JsonValue figures = JsonValue::MakeObject();
  figures.Set("window_s", JsonValue(window.seconds));
  figures.Set("slices", JsonValue(reads.slices));
  figures.Set("read_ops_per_s",
              JsonValue(static_cast<double>(tail.samples) / window.seconds));
  figures.Set("read_tail_ms", JsonValue(tail.value));
  figures.Set("read_tail_quantile", JsonValue(tail.quantile));
  figures.Set("read_samples", JsonValue(static_cast<uint64_t>(tail.samples)));
  figures.Set("sliced_read_p90_ms", JsonValue(reads.tail.value));
  figures.Set("min_reads_per_slice",
              JsonValue(static_cast<uint64_t>(reads.min_slice_samples)));
  figures.Set("q2_fresh_p50_ms",
              JsonValue(Median(Latencies(window.logs, 0, 0))));
  figures.Set("predict_fresh_p50_ms",
              JsonValue(Median(Latencies(window.logs, 1, 0))));
  figures.Set("hot_p50_ms", JsonValue(Median(Latencies(window.logs, -1, 1))));
  for (size_t s = 0; s < kReadSessions.size(); ++s) {
    figures.Set("q2_fresh_p50_ms." + kReadSessions[s].name,
                JsonValue(Median(Latencies(window.logs, 0, 0,
                                           static_cast<int>(s)))));
  }
  result.detail.Set("figures", std::move(figures));

  // Bit-identity of sampled answers against the library on the same spec.
  // The sessions are never cleaned, so the task's own dataset is their
  // working dataset.
  const std::unique_ptr<cpclean::SimilarityKernel> kernel =
      cpclean::MakeKernel(cpclean::KernelKind::kNegativeEuclidean);
  std::map<std::string, std::unique_ptr<cpclean::CleaningTask>> twins;
  JsonValue sessions = JsonValue::MakeArray();
  for (const SessionSpec& spec : kReadSessions) {
    auto twin = BuildTwin(spec);
    if (!twin.ok()) {
      result.failures.push_back(spec.name + " twin: " +
                                twin.status().ToString());
      return result;
    }
    sessions.Append(SessionFacts(spec, *twin.value()));
    twins[spec.name] = std::move(twin).value();
  }
  result.detail.Set("sessions", std::move(sessions));
  size_t checked = 0;
  std::map<std::string, std::vector<const Checked*>> fresh_points;
  for (const ConnectionLog& log : window.logs) {
    for (const Checked& check : log.checks) {
      ++checked;
      if (!MatchesLibrary(check, twins[check.session]->incomplete, *kernel)) {
        result.failures.push_back(check.op + " on " + check.session +
                                  " differs from the library: " +
                                  check.result.Dump());
      }
      fresh_points[check.session].push_back(&check);
    }
  }
  result.detail.Set("checked_responses",
                    JsonValue(static_cast<uint64_t>(checked)));
  if (checked == 0) result.failures.push_back("no response was checked");
  if (!args.trace) {
    StopServer(live.value().process.get(), &result);
    return result;
  }

  // Traced window: the same traffic on a different stream, with the
  // server's counters scraped around it and its span ring polled during it.
  Result<CounterSnapshot> before = Scrape(live.value().control.get());
  std::vector<JsonValue> spans;
  std::atomic<bool> stop_polling{false};
  std::thread poller(PollSpans, live.value().process->port(), &stop_polling,
                     &spans);
  ReadWindow traced =
      RunReadWindow(args, &live.value(), args.seed + 1, targets);
  stop_polling.store(true);
  poller.join();
  Result<CounterSnapshot> after = Scrape(live.value().control.get());
  for (const ConnectionLog& log : traced.logs) {
    result.outcomes.Merge(log.outcomes);
  }
  StopServer(live.value().process.get(), &result);
  if (!before.ok() || !after.ok()) {
    result.failures.push_back("metrics scrape failed");
    return result;
  }

  // Only puma4000's points, the session of the typical latency: pooled
  // over both sizes, the medians would sit on whichever session happened
  // to keep more points.
  LayerSamples layers;
  const std::string& probed_session = kReadSessions[kPumaIndex].name;
  size_t probed = 0;
  for (const Checked* check : fresh_points[probed_session]) {
    if (probed++ >= kProbePoints) break;
    ProbePoint(twins[probed_session]->incomplete, check->point, *kernel, kK,
               &layers);
  }
  AddPointLayers(layers, &result.per_layer);
  for (const std::string& name : CleaningLayerMetricNames()) {
    AddMetric(&result.per_layer, name, 0.0);  // serve_read cleans nothing
  }
  AddServeLayers(before.value(), after.value(), spans,
                 Median(Latencies(traced.logs, -1, 1)), dir.path + "/data",
                 &result.per_layer);
  const SlicedStats traced_reads =
      SlicedLatencies(traced.logs, -1, -1, -1, traced.seconds);
  std::vector<Metric> traced_metrics;
  AddMetric(&traced_metrics, "throughput_per_s", traced_reads.rate_per_s);
  AddMetric(&traced_metrics, "typical_latency_ms",
            SlicedLatencies(traced.logs, 0, 0, kPumaIndex, traced.seconds)
                .p50_ms);
  AddMetric(&traced_metrics, "tail_latency_ms", traced_reads.tail.value);
  AddTraceOverhead(result.end_to_end, traced_metrics, &result.per_layer);
  return result;
}

// --- serve_clean -------------------------------------------------------------

namespace {

/// Three Table 2 sized sessions. Readers only touch A; the writer visits
/// A, B, C in turn. With --max-sessions=2, B and C alternate through
/// evict and rehydrate while A stays resident.
const SessionSpec kSessionA = {"A", "Supreme", 150};
const SessionSpec kSessionB = {"B", "Puma", 150};
const SessionSpec kSessionC = {"C", "BabyProduct", 150};
constexpr int kWriterRounds = 5;
/// One reader beside the writer. The server runs --threads=1, so a
/// clean_step keeps one core busy and the reader's request another.
constexpr int kReaderConnections = 1;
/// 1000-1500 explain answers per run: HighestTail's rule allows a p90, fixed
/// here so the percentile cannot flip if the read rate moves.
constexpr double kExplainTailQuantile = 0.9;
/// Set-up here is cheap (three 150-row sessions), so it is repeated more.
constexpr int kCleanSetupRepeats = 11;

/// What the writer did: per session, the acknowledged cleaning order and
/// the dataset version after each step.
struct WriterLog {
  Outcomes outcomes;
  std::vector<double> step_ms, save_ms, rehydrate_ms;
  std::map<std::string, std::vector<std::pair<int, uint64_t>>> acked;
  double seconds = 0.0;
};

const JsonValue* Timed(LineClient* client, const JsonValue& request,
                       const std::string& op, Outcomes* outcomes,
                       JsonValue* parsed, double* ms) {
  const Clock::time_point t = Clock::now();
  const std::string response = client->RoundTrip(request.Dump());
  *ms = MsSince(t);
  return outcomes->Record(op, response, parsed);
}

/// The fixed writer schedule: kWriterRounds rounds over A, B, C, one
/// clean_step and one save_session per visit. Before visiting B or C it
/// reads A once, so A is always the most recently used of the other two
/// sessions and the evicted one is exactly the session not being visited;
/// `load_session` then rehydrates the visited one explicitly.
void WriterLoop(int port, WriterLog* log) {
  const Clock::time_point start = Clock::now();
  Result<std::unique_ptr<LineClient>> client = LineClient::Connect(port);
  if (!client.ok()) {
    log->outcomes.Record("connect", "", nullptr);
    return;
  }
  LineClient* c = client.value().get();
  for (int round = 0; round < kWriterRounds; ++round) {
    for (const SessionSpec* spec : {&kSessionA, &kSessionB, &kSessionC}) {
      const std::string& name = spec->name;
      JsonValue parsed;
      double ms = 0.0;
      if (name != kSessionA.name) {
        JsonValue touch = Request("predict", kSessionA.name);
        touch.Set("val_indices", JsonValue::FromInts({0}));
        if (Timed(c, touch, "writer_touch", &log->outcomes, &parsed, &ms) ==
            nullptr) {
          return;
        }
        if (Timed(c, Request("load_session", name), "load_session",
                  &log->outcomes, &parsed, &ms) == nullptr) {
          return;
        }
        log->rehydrate_ms.push_back(ms);
      }
      JsonValue step = Request("clean_step", name);
      step.Set("steps", JsonValue(1));
      const JsonValue* stepped =
          Timed(c, step, "clean_step", &log->outcomes, &parsed, &ms);
      if (stepped == nullptr) return;
      log->step_ms.push_back(ms);
      const JsonValue* cleaned = stepped->Find("cleaned");
      if (cleaned != nullptr && cleaned->is_array()) {
        for (const JsonValue& id : cleaned->array()) {
          log->acked[name].emplace_back(
              static_cast<int>(id.number_value()),
              static_cast<uint64_t>(Number(stepped, "version")));
        }
      }
      if (Timed(c, Request("save_session", name), "save_session",
                &log->outcomes, &parsed, &ms) == nullptr) {
        return;
      }
      log->save_ms.push_back(ms);
    }
  }
  log->seconds = MsSince(start) / 1e3;
}

struct CleanWindow {
  double seconds = 0.0;
  std::vector<ConnectionLog> readers;
  WriterLog writer;
  uint64_t a_initial_version = 0;
};

/// Warms A's hot set, then runs the writer beside the readers. The window
/// is the writer's fixed schedule, so every slice of it sees the same
/// mix of reads beside writes; the schedule takes about 24 s on a 4-vCPU
/// host.
Result<CleanWindow> RunCleanWindow(LiveServer* live, uint64_t seed,
                                   Outcomes* setup_outcomes) {
  CleanWindow window;
  TargetSession target{kSessionA.name, live->dims[kSessionA.name],
                       GaussianPoints(seed * 1000, kHotPoints,
                                      live->dims[kSessionA.name])};
  for (const auto& point : target.hot) {
    JsonValue warm = Request("q2", kSessionA.name);
    JsonValue points = JsonValue::MakeArray();
    points.Append(JsonValue::FromDoubles(point));
    warm.Set("points", std::move(points));
    setup_outcomes->RecordLocal("warm_q2",
                                Call(live->control.get(), warm).ok());
  }
  CP_ASSIGN_OR_RETURN(const JsonValue stats,
                      Call(live->control.get(),
                           Request("stats", kSessionA.name)));
  window.a_initial_version = static_cast<uint64_t>(Number(&stats, "version"));

  // certify costs ~60 ms on the 1-thread pool, 20x an explain; at 5% it
  // still takes most of the reader's time.
  const std::vector<OpShare> mix = {
      {"q2", 0.5, {}, true},
      {"certify", 0.05, {{"max_cleaned", 4}}, false},
      {"explain", 0.45, {}, false},
  };
  std::vector<RequestStream> streams;
  for (int r = 0; r < kReaderConnections; ++r) {
    streams.emplace_back(seed, r, mix, std::vector<TargetSession>{target}, 0.5);
  }
  std::atomic<bool> writer_done{false};
  std::thread writer([&] {
    WriterLoop(live->process->port(), &window.writer);
    writer_done.store(true);
  });
  window.seconds = RunReaders(
      live->process->port(), streams,
      [&](double) { return writer_done.load(); },
      &window.readers);
  writer.join();
  return window;
}

/// Checks the q2 answers A's readers kept against a library session
/// restored to the writer's acknowledged prefix at each answer's version.
void CheckCleanReads(const CleanWindow& window,
                     const cpclean::CleaningTask& task_a,
                     const cpclean::SimilarityKernel& kernel,
                     WorkloadResult* result) {
  // version -> acknowledged cleaning prefix of A.
  std::map<uint64_t, std::vector<int>> prefixes;
  std::vector<int> prefix;
  prefixes[window.a_initial_version] = prefix;
  const auto acked = window.writer.acked.find(kSessionA.name);
  if (acked != window.writer.acked.end()) {
    for (const auto& [example, version] : acked->second) {
      prefix.push_back(example);
      prefixes[version] = prefix;
    }
  }
  std::map<uint64_t, std::vector<const Checked*>> by_version;
  size_t checked = 0;
  for (const ConnectionLog& log : window.readers) {
    for (const Checked& check : log.checks) {
      if (check.op != "q2") continue;
      by_version[static_cast<uint64_t>(Number(&check.result, "version"))]
          .push_back(&check);
    }
  }
  cpclean::CpCleanOptions options;
  options.k = kK;
  for (const auto& [version, checks] : by_version) {
    const auto p = prefixes.find(version);
    if (p == prefixes.end()) {
      result->failures.push_back("q2 on A answered at version " +
                                 std::to_string(version) +
                                 ", which no acknowledged write produced");
      continue;
    }
    cpclean::CleaningSession twin(&task_a, &kernel, options);
    const Status restored =
        twin.Restore(cpclean::CleaningSnapshot{p->second, {}});
    if (!restored.ok() || twin.working().version() != version) {
      result->failures.push_back("library replay of A to version " +
                                 std::to_string(version) + " failed");
      continue;
    }
    for (const Checked* check : checks) {
      ++checked;
      if (!MatchesLibrary(*check, twin.working(), kernel)) {
        result->failures.push_back("q2 on A at version " +
                                   std::to_string(version) +
                                   " differs from the library: " +
                                   check->result.Dump());
      }
    }
  }
  result->detail.Set("checked_responses",
                     JsonValue(static_cast<uint64_t>(checked)));
  if (checked == 0) result->failures.push_back("no response was checked");
}

/// No write may be lost through evict and rehydrate: each session's final
/// num_cleaned and version equal what the writer was acknowledged.
void CheckNoLostWrites(LineClient* control, const WriterLog& writer,
                       WorkloadResult* result) {
  for (const SessionSpec* spec : {&kSessionA, &kSessionB, &kSessionC}) {
    JsonValue touch = Request("predict", spec->name);  // rehydrates if evicted
    touch.Set("val_indices", JsonValue::FromInts({0}));
    Result<JsonValue> stats = Call(control, touch);
    if (stats.ok()) stats = Call(control, Request("stats", spec->name));
    const auto acked = writer.acked.find(spec->name);
    if (!stats.ok() || acked == writer.acked.end() || acked->second.empty()) {
      result->failures.push_back("cannot compare " + spec->name +
                                 " with the writer's acknowledgements");
      continue;
    }
    const double num_cleaned = Number(&stats.value(), "num_cleaned");
    const double version = Number(&stats.value(), "version");
    if (num_cleaned != static_cast<double>(acked->second.size()) ||
        version != static_cast<double>(acked->second.back().second)) {
      result->failures.push_back(
          spec->name + " lost a write: num_cleaned " +
          std::to_string(num_cleaned) + ", version " + std::to_string(version) +
          " after " + std::to_string(acked->second.size()) +
          " acknowledged steps ending at version " +
          std::to_string(acked->second.back().second));
    }
  }
}

}  // namespace

WorkloadResult RunServeClean(const BenchArgs& args) {
  WorkloadResult result;
  RunDir dir(args);
  const std::vector<std::string> flags = {
      "--threads=1", "--max-sessions=2", "--data-dir=" + dir.path + "/data"};
  // Created B, C, A: A's creation evicts B, leaving C and A resident.
  const std::vector<SessionSpec> order = {kSessionB, kSessionC, kSessionA};
  const std::unique_ptr<cpclean::SimilarityKernel> kernel =
      cpclean::MakeKernel(cpclean::KernelKind::kNegativeEuclidean);

  struct Pass {
    CleanWindow window;
    CounterSnapshot before, after;
    std::vector<JsonValue> spans;
    double setup_s = 0.0;
    double peak_rss_mb = 0.0;
  };
  // One untraced pass; with --trace, a traced pass on a fresh server.
  std::vector<Pass> passes(args.trace ? 2 : 1);
  for (size_t p = 0; p < passes.size(); ++p) {
    Pass& pass = passes[p];
    const bool traced = p == 1;
    Result<LiveServer> live =
        SetUp(args, flags, dir.path, order, traced ? 1 : kCleanSetupRepeats,
              &pass.setup_s);
    if (!live.ok()) {
      result.failures.push_back("set-up: " + live.status().ToString());
      return result;
    }
    std::atomic<bool> stop_polling{false};
    std::thread poller;
    if (traced) {
      Result<CounterSnapshot> before = Scrape(live.value().control.get());
      if (before.ok()) pass.before = before.value();
      poller = std::thread(PollSpans, live.value().process->port(),
                           &stop_polling, &pass.spans);
    }
    Result<CleanWindow> window =
        RunCleanWindow(&live.value(), args.seed + p, &result.outcomes);
    stop_polling.store(true);
    if (poller.joinable()) poller.join();
    if (!window.ok()) {
      result.failures.push_back(window.status().ToString());
      return result;
    }
    pass.window = std::move(window).value();
    for (const ConnectionLog& log : pass.window.readers) {
      result.outcomes.Merge(log.outcomes);
    }
    result.outcomes.Merge(pass.window.writer.outcomes);
    Result<CounterSnapshot> after = Scrape(live.value().control.get());
    if (!after.ok()) {
      result.failures.push_back("metrics scrape failed");
      return result;
    }
    pass.after = after.value();
    // B and C are rehydrated on every visit and nothing else loads.
    const double loads = Delta(pass.before, pass.after, "store.loads_total");
    if (loads != 2.0 * kWriterRounds) {
      result.failures.push_back("expected " +
                                std::to_string(2 * kWriterRounds) +
                                " rehydrations, the store counted " +
                                std::to_string(loads));
    }
    pass.peak_rss_mb = live.value().process->PeakRssMb();
    CheckNoLostWrites(live.value().control.get(), pass.window.writer, &result);
    StopServer(live.value().process.get(), &result);
  }

  const CleanWindow& window = passes[0].window;
  auto task_a = BuildTwin(kSessionA);
  if (!task_a.ok()) {
    result.failures.push_back("A twin: " + task_a.status().ToString());
    return result;
  }
  CheckCleanReads(window, *task_a.value(), *kernel, &result);

  const double steps_per_s =
      static_cast<double>(window.writer.step_ms.size()) / window.writer.seconds;
  // The reader's gated figures come from explain, the heavy per-point
  // read whose cost does not swing with the seeded points (certify's
  // does) and whose 1000-1500 samples per run put 100 or more beyond
  // its p90.
  const std::vector<double> explain = Latencies(window.readers, 2, -1);
  AddMetric(&result.end_to_end, "setup_s", passes[0].setup_s);
  AddMetric(&result.end_to_end, "peak_rss_mb", passes[0].peak_rss_mb);
  AddMetric(&result.end_to_end, "throughput_per_s", steps_per_s);
  AddMetric(&result.end_to_end, "typical_latency_ms", Median(explain));
  AddMetric(&result.end_to_end, "tail_latency_ms",
            Percentile(explain, kExplainTailQuantile));

  const TailStat tail = HighestTail(Latencies(window.readers, -1, -1));
  JsonValue figures = JsonValue::MakeObject();
  figures.Set("window_s", JsonValue(window.seconds));
  figures.Set("writer_s", JsonValue(window.writer.seconds));
  figures.Set("clean_steps_per_s", JsonValue(steps_per_s));
  figures.Set("read_ops_per_s",
              JsonValue(static_cast<double>(tail.samples) / window.seconds));
  figures.Set("read_tail_ms", JsonValue(tail.value));
  figures.Set("read_tail_quantile", JsonValue(tail.quantile));
  figures.Set("read_samples", JsonValue(static_cast<uint64_t>(tail.samples)));
  figures.Set("explain_samples",
              JsonValue(static_cast<uint64_t>(explain.size())));
  figures.Set("q2_fresh_p50_ms",
              JsonValue(Median(Latencies(window.readers, 0, 0))));
  figures.Set("q2_hot_p50_ms",
              JsonValue(Median(Latencies(window.readers, 0, 1))));
  figures.Set("certify_p50_ms",
              JsonValue(Median(Latencies(window.readers, 1, -1))));
  figures.Set("explain_p50_ms", JsonValue(Median(explain)));
  figures.Set("clean_step_p50_ms", JsonValue(Median(window.writer.step_ms)));
  figures.Set("clean_step_time_weighted_p50_ms",
              JsonValue(TimeWeightedPercentile(window.writer.step_ms, 0.5)));
  figures.Set("clean_steps",
              JsonValue(static_cast<int>(window.writer.step_ms.size())));
  figures.Set("explain_p90_ms",
              JsonValue(Percentile(explain, kExplainTailQuantile)));
  figures.Set("save_p50_ms", JsonValue(Median(window.writer.save_ms)));
  figures.Set("rehydrate_p50_ms",
              JsonValue(Median(window.writer.rehydrate_ms)));
  figures.Set("rehydrations",
              JsonValue(static_cast<int>(window.writer.rehydrate_ms.size())));
  result.detail.Set("figures", std::move(figures));
  JsonValue sessions = JsonValue::MakeArray();
  sessions.Append(SessionFacts(kSessionA, *task_a.value()));
  for (const SessionSpec* spec : {&kSessionB, &kSessionC}) {
    auto twin = BuildTwin(*spec);
    if (twin.ok()) sessions.Append(SessionFacts(*spec, *twin.value()));
  }
  result.detail.Set("sessions", std::move(sessions));
  if (!args.trace) return result;

  // Per-layer: replay each session's acknowledged steps through probed
  // library sessions; every replayed step must clean what the server did.
  const Pass& traced = passes[1];
  LayerSamples layers;
  cpclean::CpCleanOptions options;
  options.k = kK;
  for (const SessionSpec* spec : {&kSessionA, &kSessionB, &kSessionC}) {
    auto twin = BuildTwin(*spec);
    const auto acked = traced.window.writer.acked.find(spec->name);
    if (!twin.ok() || acked == traced.window.writer.acked.end()) continue;
    cpclean::CleaningSession session(twin.value().get(), kernel.get(), options);
    session.FracValCertain();
    ProbedCleaner probed(twin.value().get(), kernel.get(), &session, kK);
    for (const auto& [example, version] : acked->second) {
      const int replayed = probed.Step(&layers);
      if (replayed != example) {
        result.failures.push_back(spec->name + ": the library cleaned " +
                                  std::to_string(replayed) +
                                  " where the server cleaned " +
                                  std::to_string(example));
        break;
      }
    }
  }
  AddPointLayers(layers, &result.per_layer);
  AddCleaningLayers(layers, &result.per_layer);
  AddServeLayers(traced.before, traced.after, traced.spans,
                 Median(Latencies(traced.window.readers, 0, 1)),
                 dir.path + "/data", &result.per_layer);
  const CleanWindow& tw = traced.window;
  std::vector<Metric> traced_metrics;
  AddMetric(&traced_metrics, "throughput_per_s",
            static_cast<double>(tw.writer.step_ms.size()) / tw.writer.seconds);
  const std::vector<double> traced_explain = Latencies(tw.readers, 2, -1);
  AddMetric(&traced_metrics, "typical_latency_ms", Median(traced_explain));
  AddMetric(&traced_metrics, "tail_latency_ms",
            Percentile(traced_explain, kExplainTailQuantile));
  AddTraceOverhead(result.end_to_end, traced_metrics, &result.per_layer);
  return result;
}

}  // namespace perfbench
