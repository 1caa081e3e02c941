#ifndef CPCLEAN_SERVE_OP_REGISTRY_H_
#define CPCLEAN_SERVE_OP_REGISTRY_H_

#include <string>
#include <vector>

#include "common/result.h"
#include "serve/json.h"

namespace cpclean {

class MetricCounter;
class Server;

/// Defined in op_registry.cc; `Server` befriends it so every protocol
/// handler routes through the registry rather than ad-hoc dispatch code.
struct OpHandlers;

/// Concurrency classification of a protocol op. The registry row is the
/// one source of truth for routing, lock discipline documentation,
/// capability reporting (`list_sessions`, evicted-session `stats`), the
/// transport's coalescing decision, per-op metrics labels, and the README
/// op table.
enum class OpClass {
  /// Session shared lock: version-stamped, result-cached; N readers on one
  /// session run concurrently.
  kRead,
  /// Session exclusive lock: bumps the dataset mutation version, retiring
  /// cached answers and engine bindings.
  kWrite,
  /// A transition of the session table (`SessionRegistry`), under its one
  /// mutex: create/drop/save/load publication and eviction (task builds,
  /// snapshot IO and session locks run outside the mutex).
  kLifecycle,
  /// No session state touched: registry/store/process-global reads only.
  kStateless,
};

/// Lowercase name ("read", "write", "lifecycle", "stateless") — the key
/// under which `OpCapabilities()` groups ops.
const char* OpClassName(OpClass c);

/// The per-point read ops (the paper's Q1/Q2 queries and the reads built
/// on them). A row carrying one is served by the shared batch handler and
/// `ServeSession::Read`; the op itself contributes only its
/// compute-and-render body there.
enum class ReadOp { kNone, kCertify, kQ2, kPredict, kExplain, kWhyCertified };

/// One protocol op. `params` and `result` are GitHub-markdown table cells
/// (pipes escaped) — the README "Serving" table is generated from them and
/// a test holds the README copy byte-identical to `OpTableMarkdown()`.
struct OpInfo {
  const char* name;
  OpClass classification;
  /// Routes through a named session (the `session` param is required).
  bool needs_session;
  /// Identical requests queued at the same instant may be merged into one
  /// evaluation by the TCP transport (today: `q2` only).
  bool coalescable;
  const char* params;
  const char* result;
  /// Receives its own row, so one handler can serve several ops.
  Result<JsonValue> (*handler)(Server& server, const OpInfo& op,
                               const JsonValue& req);
  /// The per-point body answering each point (kNone: not a per-point op).
  ReadOp read = ReadOp::kNone;
  /// Per-point ops only: the name of the op's integer request parameter
  /// (default -1, part of the cache key), or nullptr when it takes none.
  const char* read_param = nullptr;
};

/// The full op table, in protocol-documentation order.
const std::vector<OpInfo>& OpRegistry();

/// The registry row for `name`, or nullptr for an unknown op.
const OpInfo* FindOp(const std::string& name);

/// Comma-separated op names in registry order (unknown-op error text).
std::string SupportedOpsList();

/// The process-wide `serve.op.<name>_total` request counter for a registry
/// row (all rows are registered eagerly so `metrics` reports zeros for
/// ops never dispatched).
MetricCounter& OpRequestCounter(const OpInfo& op);

/// Ops grouped by classification — the `capabilities` object reported by
/// `list_sessions` and by `stats` on an evicted session.
JsonValue OpCapabilities();

/// The README "Serving" op table (GitHub markdown, trailing newline),
/// generated from the registry so the docs cannot drift from the code.
std::string OpTableMarkdown();

}  // namespace cpclean

#endif  // CPCLEAN_SERVE_OP_REGISTRY_H_
