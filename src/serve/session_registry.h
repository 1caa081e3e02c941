#ifndef CPCLEAN_SERVE_SESSION_REGISTRY_H_
#define CPCLEAN_SERVE_SESSION_REGISTRY_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "cleaning/cleaning_task.h"
#include "cleaning/cp_clean.h"
#include "common/result.h"
#include "knn/kernel.h"
#include "serve/engine_pool.h"
#include "serve/json.h"
#include "serve/op_registry.h"
#include "serve/result_cache.h"

namespace cpclean {

/// Per-session serving configuration.
struct ServeSessionOptions {
  int k = 3;
  KernelKind kernel = KernelKind::kNegativeEuclidean;
  double gamma = 1.0;  // RBF only
  /// 0 = the process-global shared pool (the serving default: N concurrent
  /// sessions share cores); positive = a private pool for this session.
  int num_threads = 0;
  /// Max resident entries in the per-session result cache (0 disables).
  size_t cache_capacity = 1024;
  /// FastSelectionScores memory bound (see CpCleanOptions). A session
  /// whose selection table fits keeps it resident between requests.
  size_t max_contrib_bytes = size_t{2} << 20;
  /// Non-empty: back the session's working candidate slab with an unlinked
  /// mmap scratch file under this directory (the server's `--storage-mode`
  /// resolution; not a per-request knob, so not parsed from specs).
  std::string mmap_scratch_dir;
};

/// Maps the wire kernel names ("neg_euclidean", "rbf", "linear", "cosine")
/// to KernelKind; InvalidArgument for anything else.
Result<KernelKind> KernelKindFromName(const std::string& name);

/// Resolves a session's options from a `create_session` request (or a
/// persisted spec — the same resolution runs on rehydration, so a restored
/// session always carries the options it was created with).
Result<ServeSessionOptions> ServeSessionOptionsFromRequest(
    const JsonValue& req, size_t default_cache_capacity);

/// Order-sensitive FNV fingerprint over everything in a CleaningTask that
/// determines served answers but is NOT covered by the snapshot's working
/// dataset: the encoded validation/test sets, their labels, and the
/// oracle's true-candidate answers. Stored in session snapshots and
/// re-checked on rehydration, so a CSV edited on disk between save and
/// load fails loudly instead of silently shifting q2/certify bits.
uint64_t TaskFingerprint(const CleaningTask& task);

/// One named serving session: a CleaningTask (owned), its kernel, a
/// CleaningSession holding the current cleaning state, a version-stamped
/// `EnginePool` of FastQ2 engines for concurrent Q2 readers, and an
/// internally-locked LRU result cache invalidated by the dataset's
/// mutation version.
///
/// Operations are classified read vs write over the working dataset and
/// synchronized by a `std::shared_mutex`:
///
///   read  (shared lock, run concurrently):  the per-point reads (q2,
///                                           predict, certify, explain,
///                                           why_certified), stats,
///                                           snapshot serialization
///   write (exclusive lock, serialize):      clean_step, clean_run
///
/// CP queries are pure reads of the working incomplete dataset, so N
/// concurrent readers each check out a private engine from the pool and
/// proceed in parallel; a cleaning step waits for in-flight readers, then
/// mutates, bumps the dataset version (retiring every cached answer and
/// engine binding), and lets readers back in. Served answers stay
/// bit-identical to direct library calls at the same dataset version.
class ServeSession {
 public:
  /// Validates options, instantiates the kernel and the cleaning session,
  /// and primes the validation-certainty flags (so `stats` stays a pure
  /// read). `spec` is the parameter object that recreates the session
  /// (`create_session` request minus transport fields); the session store
  /// persists it beside the cleaning state. The store's rehydration path
  /// passes `prime_certainty = false`: `RestoreCleaning` re-establishes
  /// freshness itself, so priming here would run the (parallel, full
  /// validation sweep) Q1 pass twice per load.
  static Result<std::shared_ptr<ServeSession>> Make(
      std::string name, CleaningTask task, const ServeSessionOptions& options,
      JsonValue spec = JsonValue(), bool prime_certainty = true);

  const std::string& name() const { return name_; }
  const CleaningTask& task() const { return task_; }
  const ServeSessionOptions& options() const { return options_; }
  const JsonValue& spec() const { return spec_; }

  /// Wall-clock time (unix ms) of the last counted request — creation time
  /// until one arrives. `stats` reads but does not bump it, so monitoring
  /// never keeps an idle session resident.
  int64_t last_request_unix_ms() const {
    return last_request_ms_.load(std::memory_order_relaxed);
  }
  /// Stamps a request into the LRU bookkeeping. The registry also stamps a
  /// session it rehydrated for a request, so the capacity sweep that
  /// follows the load does not evict it before the request runs.
  void Touch();
  /// Process-wide monotone sequence of the last counted request; the
  /// eviction policy's LRU order (wall-clock ms ties under bursts).
  uint64_t last_request_seq() const {
    return last_request_seq_.load(std::memory_order_relaxed);
  }

  /// Monotone count of completed mutations (clean_step/clean_run that
  /// cleaned at least one tuple). `SerializeSnapshot` reports the count
  /// its snapshot captured; comparing the two is the eviction sweep's
  /// dirty flag — a mismatch means an acknowledged write postdates the
  /// snapshot and a re-save must run before the session may be dropped.
  uint64_t write_seq() const {
    return write_seq_.load(std::memory_order_relaxed);
  }

  /// Resolves a batched request's points: either explicit feature vectors
  /// or indices into the task's validation set.
  Result<std::vector<double>> ValPoint(int index) const;

  // --- Read operations (shared lock) ---------------------------------------

  /// Answers one point of a per-point read op (`op.read`, see
  /// op_registry.h) against the current working dataset. Every op shares
  /// one prologue — shared lock, request count, touch, the dimension
  /// check, the version stamp — and one result cache keyed by (op name,
  /// kernel, k, `param`, point) at that version; only the
  /// compute-and-render body differs:
  ///
  ///   certify:        greedy per-point cleaning certificate, `param` =
  ///                   max_cleaned: {certified, label, cleaned: [ids]}
  ///   q2:             Q2 label distribution on an engine leased from the
  ///                   session's pool: {probs: [...], entropy}
  ///   predict:        Q1 checking query: {certain, label} (label -1 when
  ///                   worlds disagree)
  ///   explain:        the minimal witness set determining the Q1 answer:
  ///                   {certain, label, witnesses, support, minimal} —
  ///                   restricting the dataset to `witnesses` reproduces
  ///                   (certain, label) bit-for-bit, and removing any
  ///                   single witness flips or un-certifies it
  ///   why_certified:  explain plus the cleaning-decision audit trail (the
  ///                   session's steps that fixed a witness tuple, with
  ///                   each step's post-fix version and newly certified
  ///                   validation points): {certified, label, witnesses,
  ///                   minimal, trail: [{step, tuple, version,
  ///                   newly_certain}]}
  ///
  /// Every result ends with the dataset `version` it was computed at.
  Result<JsonValue> Read(const OpInfo& op, const std::vector<double>& point,
                         int param = -1);

  /// Session snapshot: sizes, cleaning progress, the full resolved
  /// options, last-request timestamp, cache + engine-pool counters.
  JsonValue Stats();

  /// Serializes the session as a v3 incomplete-dataset document (working
  /// dataset + version + "spec" and "cleaning" sections) for the session
  /// store. When `write_seq_out` is non-null it receives the
  /// `write_seq()` the snapshot captured — coherent with the serialized
  /// bits because writes take the exclusive lock, so no mutation can
  /// interleave. `version_out` likewise receives the working dataset's
  /// `version()` (the cleaning log's sequence anchor).
  std::string SerializeSnapshot(uint64_t* write_seq_out = nullptr,
                                uint64_t* version_out = nullptr);

  /// Everything the session mutated since a durable version — the
  /// O(delta) alternative to SerializeSnapshot.
  struct SnapshotDelta {
    /// False when the working journal cannot reconstruct the gap (the
    /// caller must fall back to a full snapshot).
    bool available = false;
    /// Mutations with seq > since_version, in order (empty = durably
    /// current already).
    std::vector<MutationRecord> records;
    /// Working dataset version after the last record.
    uint64_t version = 0;
    /// write_seq() captured coherently with the records.
    uint64_t write_seq = 0;
  };

  /// Captures the mutation delta since `since_version` (shared lock).
  SnapshotDelta SerializeDelta(uint64_t since_version);

  // --- Write operations (exclusive lock) -----------------------------------

  /// Advances up to `steps` greedy CPClean steps. Result: {cleaned: [ids],
  /// frac_val_certain, dirty_remaining, version}. Mutates the dataset, so
  /// the version bump retires every cached query answer.
  Result<JsonValue> CleanStep(int steps);

  /// Runs greedy cleaning until every validation point is CP'ed or the
  /// budget (-1 = unbounded) is exhausted.
  Result<JsonValue> CleanRun(int budget);

  /// Replays a persisted cleaning snapshot (order + stored audit prefix;
  /// per-step attribution for any uncovered suffix is recomputed) into the
  /// (freshly created) session, then verifies the rebuilt working dataset
  /// is bit-identical to `expected` (the dataset stored in the snapshot
  /// file) — a changed CSV on disk or a drifted generator fails loudly
  /// instead of serving subtly different answers.
  Status RestoreCleaning(const CleaningSnapshot& snapshot,
                         const IncompleteDataset& expected);

  // --- Eviction handshake (exclusive lock) ----------------------------------

  /// The eviction handshake (`SessionStore::SaveAndRetire`), called after
  /// the eviction save is prepared and before it commits: takes the
  /// exclusive lock (draining in-flight writers), marks the session
  /// retired — every later write op answers Unavailable("evicted; retry")
  /// instead of mutating an instance about to leave the table — and
  /// returns whether `write_seq()` advanced past `since_write_seq`, i.e.
  /// whether a write was acknowledged after the save was prepared, which
  /// must then be re-prepared. Once retired no writer can mutate the
  /// session, so an acknowledged write is either in the first save, in
  /// the re-save, or was never acknowledged.
  bool Retire(uint64_t since_write_seq);

  /// Rolls back `Retire` when the eviction save could not be written (the
  /// sweep returns the session to live instead of evicting it).
  void Unretire();

 private:
  ServeSession(std::string name, CleaningTask task,
               const ServeSessionOptions& options, JsonValue spec);


  /// `Read`'s cache-miss path: op `op`'s compute-and-render body for
  /// `point` at `version`. Runs under `Read`'s shared lock; concurrent
  /// same-key misses recompute the same bits.
  Result<JsonValue> ComputeRead(ReadOp op, const std::vector<double>& point,
                                int param, uint64_t version);

  /// The shared clean_step / clean_run body: up to `limit` greedy steps
  /// (-1 = until nothing is left or everything is certain). `run` selects
  /// clean_run's contract — no minimum step count, a `steps` output field.
  Result<JsonValue> CleanGreedy(int limit, bool run);

  const std::string name_;
  CleaningTask task_;
  ServeSessionOptions options_;
  JsonValue spec_;
  std::unique_ptr<SimilarityKernel> kernel_;
  std::unique_ptr<CleaningSession> cleaner_;
  std::unique_ptr<EnginePool> engines_;
  ResultCache cache_;
  std::atomic<uint64_t> requests_{0};
  std::atomic<int64_t> last_request_ms_{0};
  std::atomic<uint64_t> last_request_seq_{0};
  std::atomic<uint64_t> write_seq_{0};
  /// Set (under the exclusive lock) once the eviction sweep has committed
  /// to dropping this instance; write ops refuse from then on.
  bool retired_ = false;
  std::shared_mutex mu_;
};

class SessionStore;

/// The one session table: every session name's lifecycle state, and every
/// lifecycle transition as a method under its one mutex. A name in the
/// table is in one of four states:
///
///   live      resident and serving
///   retiring  the capacity sweep's victim, still serving reads while the
///             sweep commits its save (writes wait for it to settle)
///   loading   being rehydrated from its snapshot (no instance yet)
///   dropping  having its files deleted
///
/// A dropped name is absent from the table. An evicted name is absent and
/// has a snapshot on disk, so snapshots written by an earlier process
/// rehydrate too. retiring, loading and dropping are claims: the
/// transition that set one does its IO outside the mutex and then settles
/// the entry; any other transition that meets a claim waits for it
/// (read lookups of a retiring name still get its instance). An explicit
/// save pins its live entry instead: a drop waits for the pin, the sweep
/// skips it. So two sweeps never take one victim, and a drop never interleaves
/// with a load or a save commit.
///
/// The mutex is never held across snapshot IO, a task build or a session
/// lock; the only file-system call under it is the snapshot-existence
/// check on paths that miss the table.
class SessionRegistry {
 public:
  /// `store` persists, evicts and rehydrates; a disabled store keeps every
  /// session in RAM.
  explicit SessionRegistry(SessionStore* store);

  /// The live or retiring instance; NotFound otherwise. Never waits.
  Result<std::shared_ptr<ServeSession>> Get(const std::string& name) const;

  /// Live and retiring names, sorted, and their count.
  std::vector<std::string> Names() const;
  size_t size() const;

  /// AlreadyExists when `name` is in the table or evicted; Unavailable
  /// when the table is full with no data dir to evict into. `Create`
  /// applies the same rule atomically; asking first saves a doomed build.
  Status CanCreate(const std::string& name);

  /// Publishes a built session, then runs the capacity sweep; when the
  /// sweep fails the new session is removed again.
  Status Create(std::shared_ptr<ServeSession> session);

  /// What a `Find` caller is about to do with the instance.
  enum class Access {
    kRead,   // the live or retiring instance (a retiring one still reads)
    kWrite,  // waits out a retiring entry, so the write lands on the live
             // instance or on the copy rehydrated after the eviction
    kLoad,   // load_session: a resident name is AlreadyExists
  };

  /// The resident instance `access` accepts, else the evicted session
  /// loaded from its snapshot, published, and followed by the capacity
  /// sweep. A write can still meet a retired instance if the sweep claims
  /// it between this call and the write's session lock; the write then
  /// answers Unavailable("evicted; retry").
  Result<std::shared_ptr<ServeSession>> Find(const std::string& name,
                                             Access access = Access::kRead);

  /// Persists the live session, pinned while it saves. False, without
  /// saving, when the name is evicted: its snapshot is its current state.
  Result<bool> Save(const std::string& name);

  /// Discards the session and its snapshot; returns whether a snapshot was
  /// deleted. An undeletable snapshot fails the drop and keeps the session.
  Result<bool> Drop(const std::string& name);

  /// The capacity sweep, run after every publish: while more than the
  /// store's `max_sessions` entries are live, claims the least recently
  /// used (by `last_request_seq`) unpinned one, evicts it with
  /// `SessionStore::SaveAndRetire`, and settles it: absent on success,
  /// unretired and live again on failure.
  Status EnforceCapacity();

 private:
  enum class State { kLive, kRetiring, kLoading, kDropping };
  struct Entry {
    State state = State::kLive;
    std::shared_ptr<ServeSession> session;  // null while loading/dropping
    int pins = 0;                           // explicit saves in flight
  };
  using Table = std::unordered_map<std::string, Entry>;

  static bool Resident(const Entry& entry);  // live or retiring

  /// Waits until `name` is absent or its entry satisfies `ready`.
  template <typename Ready>
  Table::iterator AwaitLocked(std::unique_lock<std::mutex>& lock,
                              const std::string& name, Ready ready);

  /// Ends a claim: `name` becomes live with `session`, or absent if null.
  void Settle(const std::string& name, std::shared_ptr<ServeSession> session);

  Status CreatableLocked(const std::string& name) const;
  size_t LiveCountLocked() const;

  SessionStore* const store_;
  mutable std::mutex mu_;
  std::condition_variable settled_;  // a claim or a pin was released
  Table sessions_;
};

}  // namespace cpclean

#endif  // CPCLEAN_SERVE_SESSION_REGISTRY_H_
