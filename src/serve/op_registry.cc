#include "serve/op_registry.h"

#include <memory>
#include <utility>

#include "common/metrics.h"
#include "common/string_util.h"
#include "serve/request_params.h"
#include "serve/server.h"
#include "serve/session_registry.h"

namespace cpclean {

/// The protocol handlers. `Server` befriends this struct, so the registry
/// table below is the only routing layer between the wire and the private
/// server methods — adding an op is adding a row, not editing dispatch
/// code.
struct OpHandlers {
  static Result<JsonValue> Ping(Server&, const OpInfo&, const JsonValue&) {
    return JsonValue::MakeObject();
  }

  static Result<JsonValue> CreateSession(Server& server, const OpInfo&,
                                         const JsonValue& req) {
    return server.CreateSession(req);
  }

  static Result<JsonValue> ListSessions(Server& server, const OpInfo&,
                                        const JsonValue& req) {
    return server.ListSessions(req);
  }

  static Result<JsonValue> DropSession(Server& server, const OpInfo&,
                                       const JsonValue& req) {
    return server.DropSession(req);
  }

  /// Every per-point read op: resolves the row's parameter, the session,
  /// and the `points`/`val_indices` selector, then answers each point
  /// through `ServeSession::Read`.
  static Result<JsonValue> PointRead(Server& server, const OpInfo& op,
                                     const JsonValue& req) {
    int param = -1;
    if (op.read_param != nullptr) {
      CP_ASSIGN_OR_RETURN(param, RequestIntParam(req, op.read_param, -1));
    }
    CP_ASSIGN_OR_RETURN(const std::string name, RequestSessionName(req));
    CP_ASSIGN_OR_RETURN(const std::shared_ptr<ServeSession> session,
                        server.registry().Find(name));
    CP_ASSIGN_OR_RETURN(
        const std::vector<std::vector<double>> points,
        ResolveRequestPoints(
            req, [&session](int index) { return session->ValPoint(index); }));
    JsonValue results = JsonValue::MakeArray();
    for (const std::vector<double>& point : points) {
      CP_ASSIGN_OR_RETURN(JsonValue value, session->Read(op, point, param));
      results.Append(std::move(value));
    }
    JsonValue out = JsonValue::MakeObject();
    out.Set("count", JsonValue(static_cast<int>(points.size())));
    out.Set("results", std::move(results));
    return out;
  }

  static Result<JsonValue> CleanStep(Server& server, const OpInfo&,
                                     const JsonValue& req) {
    CP_ASSIGN_OR_RETURN(const std::string name, RequestSessionName(req));
    CP_ASSIGN_OR_RETURN(
        const std::shared_ptr<ServeSession> session,
        server.registry().Find(name, SessionRegistry::Access::kWrite));
    CP_ASSIGN_OR_RETURN(const int steps, RequestSteps(req));
    return session->CleanStep(steps);
  }

  static Result<JsonValue> CleanRun(Server& server, const OpInfo&,
                                    const JsonValue& req) {
    CP_ASSIGN_OR_RETURN(const std::string name, RequestSessionName(req));
    CP_ASSIGN_OR_RETURN(
        const std::shared_ptr<ServeSession> session,
        server.registry().Find(name, SessionRegistry::Access::kWrite));
    CP_ASSIGN_OR_RETURN(const int budget, RequestBudget(req));
    return session->CleanRun(budget);
  }

  static Result<JsonValue> SaveSession(Server& server, const OpInfo&,
                                       const JsonValue& req) {
    return server.SaveSession(req);
  }

  static Result<JsonValue> LoadSession(Server& server, const OpInfo&,
                                       const JsonValue& req) {
    return server.LoadSession(req);
  }

  static Result<JsonValue> Stats(Server& server, const OpInfo&,
                                 const JsonValue& req) {
    return server.Stats(req);
  }

  static Result<JsonValue> Metrics(Server& server, const OpInfo&,
                                   const JsonValue& req) {
    return server.Metrics(req);
  }

  static Result<JsonValue> FaultInject(Server& server, const OpInfo&,
                                       const JsonValue& req) {
    return server.FaultInject(req);
  }

  static Result<JsonValue> Shutdown(Server& server, const OpInfo&,
                                    const JsonValue&) {
    // Graceful (not Stop()): the connection that asked must still receive
    // this response before the event loop drains and closes it.
    server.RequestStop();
    JsonValue out = JsonValue::MakeObject();
    out.Set("stopping", JsonValue(true));
    return out;
  }
};

const char* OpClassName(OpClass c) {
  switch (c) {
    case OpClass::kRead:
      return "read";
    case OpClass::kWrite:
      return "write";
    case OpClass::kLifecycle:
      return "lifecycle";
    case OpClass::kStateless:
      return "stateless";
  }
  return "unknown";
}

const std::vector<OpInfo>& OpRegistry() {
  // Leaked singleton (never destroyed): handlers may run on transport
  // threads during process teardown.
  static const std::vector<OpInfo>* registry = new std::vector<OpInfo>{
      {"ping", OpClass::kStateless, false, false, "—", "`{}` (liveness probe)",
       &OpHandlers::Ping},
      {"create_session", OpClass::kLifecycle, true, false,
       "`session`, `source` (`paper`\\|`synthetic`\\|`csv`), dataset params "
       "(`dataset`, `train_rows`, `val_size`, `test_size`, `seed`, "
       "`missing_rate`, …; for CSV: `csv_text`/`csv_path`, `label`, optional "
       "`clean_*`/`val_*`/`test_*`), `k`, `kernel`, `num_threads` (0 to the "
       "`--threads` pool size), `cache_capacity`, `max_contrib_bytes`",
       "session summary (sizes, dim, `log2_worlds`)",
       &OpHandlers::CreateSession},
      {"list_sessions", OpClass::kStateless, false, false, "—",
       "`{sessions, evicted, capabilities}` — live names, saved-but-not-live "
       "names, ops grouped by class",
       &OpHandlers::ListSessions},
      {"drop_session", OpClass::kLifecycle, true, false, "`session`",
       "`{dropped, deleted_snapshot}` — discards the live session AND its "
       "snapshot",
       &OpHandlers::DropSession},
      {"certify", OpClass::kRead, true, false,
       "`session`, `points` or `val_indices`, `max_cleaned`",
       "per point: `{certified, label, cleaned: [tuple ids]}`",
       &OpHandlers::PointRead, ReadOp::kCertify, "max_cleaned"},
      {"q2", OpClass::kRead, true, true,
       "`session`, `points` or `val_indices`",
       "per point: `{probs, entropy}`", &OpHandlers::PointRead, ReadOp::kQ2},
      {"predict", OpClass::kRead, true, false,
       "`session`, `points` or `val_indices`",
       "per point: `{certain, label}` (Q1)", &OpHandlers::PointRead,
       ReadOp::kPredict},
      {"explain", OpClass::kRead, true, false,
       "`session`, `points` or `val_indices`",
       "per point: `{certain, label, witnesses, support, minimal, version}` — "
       "the dirty tuples whose candidate repairs decide the prediction",
       &OpHandlers::PointRead, ReadOp::kExplain},
      {"why_certified", OpClass::kRead, true, false,
       "`session`, `points` or `val_indices`",
       "per point: `{certified, label, witnesses, minimal, trail, version}` — "
       "witnesses plus the audited cleaning steps that fixed them",
       &OpHandlers::PointRead, ReadOp::kWhyCertified},
      {"clean_step", OpClass::kWrite, true, false, "`session`, `steps`",
       "`{cleaned: [ids], frac_val_certain, dirty_remaining, version}`",
       &OpHandlers::CleanStep},
      {"clean_run", OpClass::kWrite, true, false, "`session`, `budget`",
       "same, until all-certain or budget", &OpHandlers::CleanRun},
      {"save_session", OpClass::kLifecycle, true, false, "`session`",
       "`{saved, path, state}` — snapshot into `--data-dir` (a no-op for "
       "already-evicted sessions: the snapshot is their state)",
       &OpHandlers::SaveSession},
      {"load_session", OpClass::kLifecycle, true, false, "`session`",
       "rehydrates a saved session (stats summary)", &OpHandlers::LoadSession},
      {"stats", OpClass::kRead, false, false, "optional `session`",
       "per session: `state` (live/evicted), progress, resolved options, "
       "cache + engine-pool counters — an evicted session answers a stub "
       "(with `capabilities`) *without* rehydrating; global: live/saved "
       "sessions, pool size, transport counters",
       &OpHandlers::Stats},
      {"metrics", OpClass::kStateless, false, false, "—",
       "process-wide telemetry snapshot: counters, gauges, histogram "
       "quantiles, the recent-request span ring, fault-site hit/fire counts",
       &OpHandlers::Metrics},
      {"fault_inject", OpClass::kStateless, false, false,
       "optional `config`",
       "installs fault-injection rules; refused unless `CPCLEAN_FAULTS` "
       "armed it",
       &OpHandlers::FaultInject},
      {"shutdown", OpClass::kLifecycle, false, false, "—",
       "`{stopping: true}`, then graceful wind-down", &OpHandlers::Shutdown},
  };
  return *registry;
}

const OpInfo* FindOp(const std::string& name) {
  for (const OpInfo& op : OpRegistry()) {
    if (name == op.name) return &op;
  }
  return nullptr;
}

std::string SupportedOpsList() {
  std::string out;
  for (const OpInfo& op : OpRegistry()) {
    if (!out.empty()) out += ", ";
    out += op.name;
  }
  return out;
}

MetricCounter& OpRequestCounter(const OpInfo& op) {
  // One eager pass registers every op's counter so a `metrics` snapshot
  // reports explicit zeros for ops never dispatched — and per-request
  // lookup is an index, not a registry map probe.
  static const std::vector<MetricCounter*>* counters = [] {
    auto* v = new std::vector<MetricCounter*>();
    v->reserve(OpRegistry().size());
    for (const OpInfo& o : OpRegistry()) {
      v->push_back(&MetricsRegistry::Get().GetCounter(
          StrFormat("serve.op.%s_total", o.name)));
    }
    return v;
  }();
  return *(*counters)[&op - OpRegistry().data()];
}

JsonValue OpCapabilities() {
  JsonValue out = JsonValue::MakeObject();
  static constexpr OpClass kOrder[] = {OpClass::kRead, OpClass::kWrite,
                                       OpClass::kLifecycle,
                                       OpClass::kStateless};
  for (const OpClass c : kOrder) {
    JsonValue ops = JsonValue::MakeArray();
    for (const OpInfo& op : OpRegistry()) {
      if (op.classification == c) ops.Append(JsonValue(op.name));
    }
    out.Set(OpClassName(c), std::move(ops));
  }
  return out;
}

std::string OpTableMarkdown() {
  std::string out =
      "| op | class | parameters | result |\n|---|---|---|---|\n";
  for (const OpInfo& op : OpRegistry()) {
    out += StrFormat("| `%s` | %s | %s | %s |\n", op.name,
                     OpClassName(op.classification), op.params, op.result);
  }
  return out;
}

}  // namespace cpclean
