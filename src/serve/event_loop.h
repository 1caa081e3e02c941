#ifndef CPCLEAN_SERVE_EVENT_LOOP_H_
#define CPCLEAN_SERVE_EVENT_LOOP_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/metrics.h"
#include "common/status.h"
#include "serve/json.h"

namespace cpclean {

class Server;
struct ServerOptions;

/// The epoll transport behind `Server::ServeTcp`.
///
/// Architecture: `poller_threads` event-loop threads own the connections
/// (non-blocking sockets, per-connection read/write buffers, incremental
/// newline framing); poller 0 also owns the listener and deals accepted
/// connections round-robin. Completed request lines are dispatched to a
/// bounded pool of `request_workers` threads through one shared work
/// queue; responses travel back through per-connection ordered slots, so
/// each connection sees its responses in request order even though
/// different connections' requests execute concurrently.
///
/// Per-connection execution is serial — at most one request of a
/// connection is in flight at a time, exactly like the thread-per-
/// connection transport it replaces — so pipelined requests on one
/// connection observe each other's effects and every response line is
/// byte-identical to the blocking transport's.
///
/// While an identical `q2` request (same request object, ids aside) is
/// still waiting in the work queue, later arrivals merge into it: the
/// engine evaluates once and the response fans back to every waiter with
/// its own id. The coalescing window is therefore the head request's
/// queueing delay — under no load requests are never merged, under
/// overload identical points collapse into one evaluation.
class EventLoop {
 public:
  /// Borrows `server` for dispatch and counters and `options` (the
  /// transport knobs) for the loop's lifetime; takes ownership of
  /// `listen_fd` (already bound and listening, closed by `Run`).
  /// `metrics_listen_fd` is an already-listening loopback fd serving HTTP
  /// `GET /metrics` on poller 0, or -1 for none; the loop owns it too.
  EventLoop(Server* server, int listen_fd, const ServerOptions& options,
            int metrics_listen_fd);
  ~EventLoop();

  EventLoop(const EventLoop&) = delete;
  EventLoop& operator=(const EventLoop&) = delete;

  /// Runs the transport until the server is stopping and every connection
  /// has drained (graceful), or until `HardStop`. Blocks the caller (it
  /// becomes poller 0).
  Status Run();

  /// Kicks every poller so a stop flag set elsewhere is noticed now
  /// instead of at the next poll timeout. Async-signal-safe (write(2)).
  void Wake();

  /// Close every connection without waiting for pending responses, then
  /// unwind `Run`. (Graceful stop is `Server::RequestStop` + `Wake`.)
  void HardStop();

 private:
  /// One response slot in a connection's ordered outgoing queue. Workers
  /// fill `text` then flip `ready`; the owning poller flushes slots
  /// strictly front to back, so responses keep request order.
  ///
  /// `owner` is the deadline handshake: 0 = unclaimed, 1 = the worker won
  /// (its rendered result is installed), 2 = the deadline reaper won (the
  /// slot holds a DeadlineExceeded line; the worker's result is discarded
  /// whole). Whoever wins the CAS writes `text` and flips `ready` — a slot
  /// is never half-written.
  struct Response {
    std::string text;  // includes the trailing '\n'
    std::atomic<bool> ready{false};
    std::atomic<int> owner{0};
    /// Per-request span, recorded by the worker while it owns the slot and
    /// finalized by the poller at flush completion — but only when the
    /// worker won the owner CAS (`owner == 1`): after a deadline reap the
    /// worker may still be writing these fields. Embedded by value so
    /// tracing allocates nothing.
    RequestSpan span;
    bool has_span = false;
  };

  /// Connection state, owned by exactly one poller thread; workers touch
  /// only the Response slots.
  struct Connection {
    int fd = -1;
    int poller = 0;
    bool closed = false;
    bool http = false;       // metrics-listener connection (GET /metrics)
    /// Output bytes this connection has contributed to the process-wide
    /// backlog gauge (kept so close can subtract exactly what was added).
    size_t backlog_gauge = 0;
    bool reading = true;     // cleared on EOF or graceful stop
    bool read_paused = false;  // EPOLLIN off: output backlog over the hwm
    bool want_write = false; // EPOLLOUT armed (partial write pending)
    bool executing = false;  // head request dispatched, response pending
    std::string in_buffer;
    std::deque<std::string> pending_lines;
    std::deque<std::shared_ptr<Response>> outgoing;
    size_t out_offset = 0;   // bytes of outgoing.front() already sent
    /// Idle-reap clock: last time a byte moved in either direction.
    std::chrono::steady_clock::time_point last_activity{};
    /// Deadline bookkeeping for the executing request (valid while
    /// `executing`): its slot, its expiry, and its id for the
    /// DeadlineExceeded line.
    std::shared_ptr<Response> exec_slot;
    std::chrono::steady_clock::time_point exec_deadline{};
    bool exec_has_id = false;
    JsonValue exec_id;
  };

  struct WorkItem {
    struct Waiter {
      std::shared_ptr<Connection> conn;
      std::shared_ptr<Response> slot;
      bool has_id = false;
      JsonValue id;
      /// The worker renders here, then installs into `slot` only after
      /// winning the owner CAS — a deadline-reaped slot never sees a
      /// partial (or late) result.
      std::string rendered;
    };
    bool raw = false;          // unparseable line: replay via HandleLine
    std::string line;          // raw == true
    JsonValue request;         // raw == false
    std::string coalesce_key;  // non-empty: mergeable while queued
    std::vector<Waiter> waiters;
  };

  struct Poller {
    int epoll_fd = -1;
    int wake_fd = -1;  // eventfd
    std::unordered_map<int, std::shared_ptr<Connection>> conns;
    // Cross-thread inboxes, drained after every poll round.
    std::mutex mu;
    std::vector<std::shared_ptr<Connection>> incoming;
    std::vector<std::shared_ptr<Connection>> completions;
  };

  void PollerLoop(int index);
  void WorkerLoop();
  void AcceptReady(Poller& p);
  /// Accepts connections on the metrics listener (poller 0 only).
  void AcceptMetricsReady(Poller& p);
  /// Parses a complete HTTP request head and queues the response; returns
  /// false when more bytes are needed.
  bool HandleHttpRequest(Poller& p, const std::shared_ptr<Connection>& conn);
  /// Deadline expiry, idle reaping, parked-listener retry — runs once per
  /// poll tick, and only when one of those features is armed.
  void Housekeeping(Poller& p, int index);
  /// Takes the listener out of epoll after persistent accept failure and
  /// schedules a doubling-backoff retry (no busy-spin on EMFILE).
  void ParkListener(Poller& p);
  void AdoptConnection(Poller& p, const std::shared_ptr<Connection>& conn);
  void ReadReady(Poller& p, const std::shared_ptr<Connection>& conn);
  /// Dispatches the connection's head pending line (serial per connection)
  /// and flushes whatever is ready.
  void DispatchLines(Poller& p, const std::shared_ptr<Connection>& conn);
  void FlushConnection(Poller& p, const std::shared_ptr<Connection>& conn);
  void CloseConnection(Poller& p, const std::shared_ptr<Connection>& conn);
  void UpdateInterest(Poller& p, Connection& conn);
  void Enqueue(std::shared_ptr<WorkItem> item);
  void Execute(WorkItem& item);
  /// Completes `span` at last-byte-flushed time: flush/total durations,
  /// the request histograms, the global span ring, and (over threshold)
  /// the slow-request log line.
  void FinalizeSpan(RequestSpan& span);
  /// Hands the completed response back to each waiter's poller.
  void Complete(WorkItem& item);

  Server* server_;
  int listen_fd_;
  const ServerOptions& options_;
  int metrics_listen_fd_;
  int num_pollers_ = 1;
  int num_workers_ = 1;
  std::string overload_line_;      // pre-rendered accept-time rejection
  std::string fd_exhausted_line_;  // pre-rendered EMFILE rejection

  std::vector<std::unique_ptr<Poller>> pollers_;
  std::atomic<bool> hard_stop_{false};
  std::atomic<bool> listener_open_{false};
  std::atomic<bool> metrics_listener_open_{false};
  std::atomic<uint64_t> next_poller_{0};  // round-robin connection deal

  // Poller-0 state: the EMFILE reserve fd (closed to free a slot so the
  // victim can be accepted and told why it is being turned away) and the
  // parked-listener backoff.
  int spare_fd_ = -1;
  bool listener_parked_ = false;
  std::chrono::steady_clock::time_point listener_retry_at_{};
  int accept_backoff_ms_ = 0;

  // The shared request-work queue (all pollers feed it, all workers drain
  // it) plus the pending-coalesce index over queued-but-unstarted q2 items.
  std::mutex queue_mu_;
  std::condition_variable queue_cv_;
  std::deque<std::shared_ptr<WorkItem>> queue_;
  std::unordered_map<std::string, std::shared_ptr<WorkItem>> pending_q2_;
  bool workers_stop_ = false;
};

}  // namespace cpclean

#endif  // CPCLEAN_SERVE_EVENT_LOOP_H_
