#include "serve/event_loop.h"

#include <fcntl.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <utility>

#include "common/fault_injection.h"
#include "common/string_util.h"
#include "common/thread_pool.h"
#include "serve/op_registry.h"
#include "serve/server.h"

namespace cpclean {

namespace {

constexpr int kPollTimeoutMs = 100;  // stop-flag backstop; wakes are prompt

/// The request without its `id` member: the coalescing key (two requests
/// that differ only in id are the same work) and the base request a
/// coalesced group executes once.
JsonValue StripId(const JsonValue& request) {
  JsonValue out = JsonValue::MakeObject();
  for (const JsonValue::Member& member : request.object()) {
    if (member.first == "id") continue;
    out.Set(member.first, member.second);
  }
  return out;
}

/// A structured error line mirroring HandleRequest's rendering exactly
/// (id first when present, then proto/ok/error) so transport-level
/// rejections are indistinguishable in shape from engine-level errors.
std::string ErrorLine(const JsonValue* id, StatusCode code,
                      const std::string& message) {
  JsonValue response = JsonValue::MakeObject();
  if (id != nullptr) response.Set("id", *id);
  response.Set("proto", JsonValue(1));
  response.Set("ok", JsonValue(false));
  JsonValue error = JsonValue::MakeObject();
  error.Set("code", JsonValue(StatusCodeToString(code)));
  error.Set("message", JsonValue(message));
  response.Set("error", std::move(error));
  std::string line = response.Dump();
  line.push_back('\n');
  return line;
}

bool BlankOrComment(const std::string& line) {
  const size_t begin = line.find_first_not_of(" \t\r");
  return begin == std::string::npos || line[begin] == '#';
}

void SendAll(int fd, const std::string& data) {
  size_t sent = 0;
  while (sent < data.size()) {
    // MSG_NOSIGNAL: a client that already reset must not SIGPIPE the
    // server out of existence.
    const ssize_t w =
        ::send(fd, data.data() + sent, data.size() - sent, MSG_NOSIGNAL);
    if (w <= 0) {
      if (w < 0 && errno == EINTR) continue;
      break;
    }
    sent += static_cast<size_t>(w);
  }
}

}  // namespace

EventLoop::EventLoop(Server* server, int listen_fd,
                     const ServerOptions& options, int metrics_listen_fd)
    : server_(server),
      listen_fd_(listen_fd),
      options_(options),
      metrics_listen_fd_(metrics_listen_fd),
      num_pollers_(std::max(options.poller_threads, 1)) {
  num_workers_ = options_.request_workers > 0 ? options_.request_workers
                                              : ThreadPool::HardwareThreads();
  overload_line_ = ErrorLine(
      nullptr, StatusCode::kUnavailable,
      StrFormat("connection limit (--max-connections=%d) reached; retry "
                "when a connection frees up",
                options_.max_connections));
  fd_exhausted_line_ = ErrorLine(
      nullptr, StatusCode::kUnavailable,
      "server file descriptors exhausted; retry shortly");
}

EventLoop::~EventLoop() {
  // The epoll/wake fds close HERE, not in Run()'s teardown: Server::Stop
  // calls Wake() through its published loop pointer under conn_mu_, and
  // ServeTcp unpublishes that pointer (same mutex) after Run returns but
  // before this destructor — so no Wake can race a close and write into a
  // recycled descriptor.
  for (const std::unique_ptr<Poller>& p : pollers_) {
    if (p->epoll_fd >= 0) ::close(p->epoll_fd);
    if (p->wake_fd >= 0) ::close(p->wake_fd);
  }
}

void EventLoop::Wake() {
  for (const std::unique_ptr<Poller>& p : pollers_) {
    if (p == nullptr || p->wake_fd < 0) continue;
    const uint64_t one = 1;
    // write(2) only: callable from a signal handler. A full eventfd
    // counter (EAGAIN) already guarantees a pending wake.
    (void)!::write(p->wake_fd, &one, sizeof(one));
  }
}

void EventLoop::HardStop() {
  hard_stop_.store(true);
  Wake();
}

Status EventLoop::Run() {
  // The listener must be non-blocking: AcceptReady drains it until EAGAIN,
  // and a blocking accept4 would wedge poller 0 once the backlog empties.
  {
    const int flags = ::fcntl(listen_fd_, F_GETFL, 0);
    ::fcntl(listen_fd_, F_SETFL, flags | O_NONBLOCK);
  }
  // The EMFILE reserve: one fd held in escrow so accept-at-the-limit can
  // briefly free a slot, accept the surplus connection, and turn it away
  // with a structured line instead of leaving it dangling in the backlog.
  spare_fd_ = ::open("/dev/null", O_RDONLY | O_CLOEXEC);
  pollers_.reserve(static_cast<size_t>(num_pollers_));
  for (int i = 0; i < num_pollers_; ++i) {
    auto p = std::make_unique<Poller>();
    p->epoll_fd = ::epoll_create1(0);
    p->wake_fd = ::eventfd(0, EFD_NONBLOCK);
    if (p->epoll_fd < 0 || p->wake_fd < 0) {
      const Status status = Status::IoError(
          StrFormat("event loop setup: %s", std::strerror(errno)));
      if (p->epoll_fd >= 0) ::close(p->epoll_fd);
      if (p->wake_fd >= 0) ::close(p->wake_fd);
      // Already-built pollers stay in pollers_; the destructor closes
      // their fds after the loop is unpublished (see ~EventLoop).
      ::close(listen_fd_);
      if (metrics_listen_fd_ >= 0) ::close(metrics_listen_fd_);
      return status;
    }
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.fd = p->wake_fd;
    ::epoll_ctl(p->epoll_fd, EPOLL_CTL_ADD, p->wake_fd, &ev);
    pollers_.push_back(std::move(p));
  }
  {
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.fd = listen_fd_;
    ::epoll_ctl(pollers_[0]->epoll_fd, EPOLL_CTL_ADD, listen_fd_, &ev);
    listener_open_.store(true);
  }
  if (metrics_listen_fd_ >= 0) {
    // The /metrics listener shares poller 0 with the main listener; its
    // connections are one-shot HTTP GETs and never touch the work queue.
    const int flags = ::fcntl(metrics_listen_fd_, F_GETFL, 0);
    ::fcntl(metrics_listen_fd_, F_SETFL, flags | O_NONBLOCK);
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.fd = metrics_listen_fd_;
    ::epoll_ctl(pollers_[0]->epoll_fd, EPOLL_CTL_ADD,
                metrics_listen_fd_, &ev);
    metrics_listener_open_.store(true);
  }

  std::vector<std::thread> workers;
  workers.reserve(static_cast<size_t>(num_workers_));
  for (int w = 0; w < num_workers_; ++w) {
    workers.emplace_back([this] { WorkerLoop(); });
  }
  std::vector<std::thread> pollers;
  pollers.reserve(static_cast<size_t>(num_pollers_ - 1));
  for (int i = 1; i < num_pollers_; ++i) {
    pollers.emplace_back([this, i] { PollerLoop(i); });
  }
  PollerLoop(0);  // the caller is poller 0
  for (std::thread& t : pollers) t.join();

  // Pollers are done, so the queue can only shrink: let the workers drain
  // whatever is left (responses to already-closed connections are simply
  // discarded) and exit.
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    workers_stop_ = true;
  }
  queue_cv_.notify_all();
  for (std::thread& t : workers) t.join();

  if (listener_open_.exchange(false)) ::close(listen_fd_);
  if (metrics_listener_open_.exchange(false)) {
    ::close(metrics_listen_fd_);
  }
  if (spare_fd_ >= 0) {
    ::close(spare_fd_);
    spare_fd_ = -1;
  }
  // Poller epoll/wake fds intentionally stay open until ~EventLoop runs,
  // after ServeTcp unpublishes the loop: a late Server::Stop may still
  // Wake() them.
  return Status::OK();
}

void EventLoop::PollerLoop(int index) {
  Poller& p = *pollers_[static_cast<size_t>(index)];
  std::vector<epoll_event> events(256);
  bool announced_stop = false;
  while (true) {
    const bool hard = hard_stop_.load();
    const bool stopping = hard || server_->stopping();
    if (stopping) {
      if (!announced_stop) {
        announced_stop = true;
        Wake();  // every poller should notice now, not at its timeout
      }
      if (index == 0 && listener_open_.exchange(false)) {
        ::epoll_ctl(p.epoll_fd, EPOLL_CTL_DEL, listen_fd_, nullptr);
        ::close(listen_fd_);
      }
      if (index == 0 && metrics_listener_open_.exchange(false)) {
        ::epoll_ctl(p.epoll_fd, EPOLL_CTL_DEL, metrics_listen_fd_,
                    nullptr);
        ::close(metrics_listen_fd_);
      }
      // Graceful: stop reading (lines already framed still get answers,
      // unread socket bytes are dropped — the thread-per-connection
      // semantics). Hard: drop everything now.
      std::vector<std::shared_ptr<Connection>> snapshot;
      snapshot.reserve(p.conns.size());
      for (const auto& entry : p.conns) snapshot.push_back(entry.second);
      for (const std::shared_ptr<Connection>& conn : snapshot) {
        if (hard) {
          CloseConnection(p, conn);
          continue;
        }
        if (conn->reading) {
          conn->reading = false;
          UpdateInterest(p, *conn);
        }
        // Drain: framed lines still get dispatched and answered; closes
        // the connection once everything has flushed.
        DispatchLines(p, conn);
      }
      bool inbox_empty;
      {
        std::lock_guard<std::mutex> lock(p.mu);
        inbox_empty = p.incoming.empty() && p.completions.empty();
      }
      if (p.conns.empty() && inbox_empty) return;
    }

    const int n = ::epoll_wait(p.epoll_fd, events.data(),
                               static_cast<int>(events.size()),
                               kPollTimeoutMs);
    for (int e = 0; e < n; ++e) {
      const int fd = events[static_cast<size_t>(e)].data.fd;
      const uint32_t mask = events[static_cast<size_t>(e)].events;
      if (fd == p.wake_fd) {
        uint64_t drain = 0;
        (void)!::read(p.wake_fd, &drain, sizeof(drain));
        continue;
      }
      if (index == 0 && fd == listen_fd_ && listener_open_.load()) {
        AcceptReady(p);
        continue;
      }
      if (index == 0 && fd == metrics_listen_fd_ &&
          metrics_listener_open_.load()) {
        AcceptMetricsReady(p);
        continue;
      }
      const auto it = p.conns.find(fd);
      if (it == p.conns.end()) continue;  // closed earlier in this batch
      const std::shared_ptr<Connection> conn = it->second;
      // EPOLLHUP/EPOLLERR arrive with no interest bits set; route them
      // through the read path (recv observes the EOF/error) while the
      // connection is reading, otherwise through the flush path (send
      // observes the reset).
      if (conn->reading &&
          (mask & (EPOLLIN | EPOLLERR | EPOLLHUP)) != 0) {
        ReadReady(p, conn);
      }
      if (conn->closed) continue;
      if ((mask & EPOLLOUT) != 0 ||
          (!conn->reading && (mask & (EPOLLERR | EPOLLHUP)) != 0)) {
        FlushConnection(p, conn);
      }
    }

    // Cross-thread inboxes: adopted connections (dealt by poller 0) and
    // completed responses (signed off by workers).
    std::vector<std::shared_ptr<Connection>> incoming;
    std::vector<std::shared_ptr<Connection>> completions;
    {
      std::lock_guard<std::mutex> lock(p.mu);
      incoming.swap(p.incoming);
      completions.swap(p.completions);
    }
    for (const std::shared_ptr<Connection>& conn : incoming) {
      AdoptConnection(p, conn);
    }
    for (const std::shared_ptr<Connection>& conn : completions) {
      if (conn->closed) continue;
      conn->executing = false;
      conn->exec_slot.reset();
      conn->exec_has_id = false;
      // The head response just became ready: flush it and dispatch the
      // next pending line, if any.
      DispatchLines(p, conn);
    }

    Housekeeping(p, index);
  }
}

void EventLoop::Housekeeping(Poller& p, int index) {
  const bool timers_armed =
      options_.request_timeout_ms > 0 || options_.idle_timeout_ms > 0;
  if (!timers_armed && !(index == 0 && listener_parked_)) return;
  const auto now = std::chrono::steady_clock::now();

  if (index == 0 && listener_parked_ && listener_open_.load() &&
      now >= listener_retry_at_) {
    listener_parked_ = false;
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.fd = listen_fd_;
    ::epoll_ctl(p.epoll_fd, EPOLL_CTL_ADD, listen_fd_, &ev);
  }
  if (!timers_armed) return;

  Server::TransportCounters& counters = server_->transport_counters();
  // Collect first, act second: both actions mutate p.conns (via
  // CloseConnection) and must not run mid-iteration.
  std::vector<std::shared_ptr<Connection>> expired;
  std::vector<std::shared_ptr<Connection>> idle;
  for (const auto& entry : p.conns) {
    const std::shared_ptr<Connection>& conn = entry.second;
    if (options_.request_timeout_ms > 0 && conn->executing &&
        conn->exec_slot != nullptr && now >= conn->exec_deadline) {
      expired.push_back(conn);
    }
    if (options_.idle_timeout_ms > 0 && !conn->executing &&
        conn->outgoing.empty() && conn->pending_lines.empty() &&
        now - conn->last_activity >=
            std::chrono::milliseconds(options_.idle_timeout_ms)) {
      idle.push_back(conn);
    }
  }
  for (const std::shared_ptr<Connection>& conn : expired) {
    // Claim the slot out from under the worker. Winning the CAS means the
    // worker had not yet installed its result — when it finishes, it
    // discards the rendering whole. Losing means the result just landed
    // (or a previous tick already expired this slot); either way the slot
    // is someone else's to fill.
    int unclaimed = 0;
    if (!conn->exec_slot->owner.compare_exchange_strong(
            unclaimed, 2, std::memory_order_acq_rel)) {
      continue;
    }
    conn->exec_slot->text = ErrorLine(
        conn->exec_has_id ? &conn->exec_id : nullptr,
        StatusCode::kDeadlineExceeded,
        StrFormat("request exceeded --request-timeout-ms=%d; its result "
                  "was discarded",
                  options_.request_timeout_ms));
    conn->exec_slot->ready.store(true, std::memory_order_release);
    counters.deadline_expired.fetch_add(1, std::memory_order_relaxed);
    // `executing` stays true until the worker actually finishes: the
    // next pipelined request must not run concurrently with the
    // abandoned one (per-connection serial semantics hold even across a
    // deadline).
    FlushConnection(p, conn);
  }
  for (const std::shared_ptr<Connection>& conn : idle) {
    if (conn->closed) continue;
    counters.idle_reaped.fetch_add(1, std::memory_order_relaxed);
    CloseConnection(p, conn);
  }
}

void EventLoop::ParkListener(Poller& p) {
  if (listener_parked_ || !listener_open_.load()) return;
  // Accept keeps failing even with the spare fd freed: re-arming EPOLLIN
  // would spin the poller at 100% re-reporting the same condition.
  // Unhook the listener and retry on a doubling clock; pending clients
  // wait in the kernel backlog meanwhile.
  listener_parked_ = true;
  ::epoll_ctl(p.epoll_fd, EPOLL_CTL_DEL, listen_fd_, nullptr);
  accept_backoff_ms_ =
      accept_backoff_ms_ == 0 ? 10 : std::min(accept_backoff_ms_ * 2, 2000);
  listener_retry_at_ = std::chrono::steady_clock::now() +
                       std::chrono::milliseconds(accept_backoff_ms_);
}

void EventLoop::AcceptReady(Poller& p) {
  while (true) {
    // el.accept simulates fd-table exhaustion: the pending connection is
    // handled by the EMFILE recovery below, exactly as a real EMFILE
    // would be.
    const bool injected_emfile = FaultHit("el.accept");
    const int client =
        injected_emfile
            ? -1
            : ::accept4(listen_fd_, nullptr, nullptr, SOCK_NONBLOCK);
    if (client < 0) {
      if (!injected_emfile && errno == EINTR) continue;
      if (!injected_emfile && (errno == EAGAIN || errno == EWOULDBLOCK)) {
        return;
      }
      if (injected_emfile || errno == EMFILE || errno == ENFILE) {
        // Out of fds. Briefly cash in the reserve fd so the surplus
        // connection can be accepted and turned away with a structured
        // line — otherwise it would sit in the backlog seeing neither
        // service nor an error.
        server_->transport_counters().rejected_connections.fetch_add(
            1, std::memory_order_relaxed);
        if (spare_fd_ >= 0) {
          ::close(spare_fd_);
          spare_fd_ = -1;
        }
        const int victim =
            ::accept4(listen_fd_, nullptr, nullptr, SOCK_NONBLOCK);
        const bool backlog_empty =
            victim < 0 && (errno == EAGAIN || errno == EWOULDBLOCK);
        if (victim >= 0) {
          SendAll(victim, fd_exhausted_line_);
          ::close(victim);
        }
        spare_fd_ = ::open("/dev/null", O_RDONLY | O_CLOEXEC);
        if (victim >= 0) continue;  // rejected one; keep draining
        if (backlog_empty) return;
        ParkListener(p);  // even the spare didn't help: stop busy-spinning
        return;
      }
      // Listener shut down (RequestStop) or fatal accept error: wind the
      // whole transport down, as the blocking accept loop did.
      server_->RequestStop();
      return;
    }
    accept_backoff_ms_ = 0;  // forward progress resets the EMFILE backoff
    if (server_->stopping() || hard_stop_.load()) {
      ::close(client);
      continue;
    }
    Server::TransportCounters& counters = server_->transport_counters();
    if (options_.max_connections > 0 &&
        counters.active_connections.load(std::memory_order_relaxed) >=
            options_.max_connections) {
      // Admission control bounds *connections* here only as a fd-table
      // guard; the request-level bound below is what protects the engine.
      // Overload answers loudly: the client sees why, not a hung socket.
      counters.rejected_connections.fetch_add(1, std::memory_order_relaxed);
      SendAll(client, overload_line_);
      ::close(client);
      continue;
    }
    counters.active_connections.fetch_add(1, std::memory_order_relaxed);
    static MetricCounter& accepts =
        MetricsRegistry::Get().GetCounter("serve.accepts_total");
    static MetricGauge& active =
        MetricsRegistry::Get().GetGauge("serve.active_connections");
    accepts.Add(1);
    active.Add(1);
    auto conn = std::make_shared<Connection>();
    conn->fd = client;
    conn->last_activity = std::chrono::steady_clock::now();
    conn->poller = static_cast<int>(next_poller_.fetch_add(1) %
                                    static_cast<uint64_t>(pollers_.size()));
    if (conn->poller == 0) {
      AdoptConnection(p, conn);
    } else {
      Poller& target = *pollers_[static_cast<size_t>(conn->poller)];
      {
        std::lock_guard<std::mutex> lock(target.mu);
        target.incoming.push_back(conn);
      }
      const uint64_t one = 1;
      (void)!::write(target.wake_fd, &one, sizeof(one));
    }
  }
}

void EventLoop::AcceptMetricsReady(Poller& p) {
  while (true) {
    const int client = ::accept4(metrics_listen_fd_, nullptr,
                                 nullptr, SOCK_NONBLOCK);
    if (client < 0) {
      if (errno == EINTR) continue;
      return;  // EAGAIN, EMFILE, ...: try again on the next EPOLLIN
    }
    if (server_->stopping() || hard_stop_.load()) {
      ::close(client);
      continue;
    }
    // Not admission-controlled and not counted as a transport connection:
    // the scrape path must keep working while the serve side is saturated.
    auto conn = std::make_shared<Connection>();
    conn->fd = client;
    conn->http = true;
    conn->poller = 0;
    conn->last_activity = std::chrono::steady_clock::now();
    AdoptConnection(p, conn);
  }
}

bool EventLoop::HandleHttpRequest(Poller& p,
                                  const std::shared_ptr<Connection>& conn) {
  // Wait for the complete request head; scrapers send no body.
  size_t head_end = conn->in_buffer.find("\r\n\r\n");
  if (head_end == std::string::npos) {
    head_end = conn->in_buffer.find("\n\n");
  }
  if (head_end == std::string::npos) {
    if (conn->in_buffer.size() > 8192) CloseConnection(p, conn);
    return false;
  }
  const bool is_metrics = conn->in_buffer.rfind("GET /metrics", 0) == 0;
  conn->in_buffer.clear();
  std::string head;
  std::string body;
  if (is_metrics) {
    static MetricCounter& scrapes =
        MetricsRegistry::Get().GetCounter("serve.http_scrapes_total");
    scrapes.Add(1);
    body = MetricsPrometheusText();
    head =
        "HTTP/1.1 200 OK\r\n"
        "Content-Type: text/plain; version=0.0.4; charset=utf-8\r\n";
  } else {
    body = "not found (try GET /metrics)\n";
    head =
        "HTTP/1.1 404 Not Found\r\n"
        "Content-Type: text/plain; charset=utf-8\r\n";
  }
  head += StrFormat("Content-Length: %llu\r\nConnection: close\r\n\r\n",
                    static_cast<unsigned long long>(body.size()));
  auto slot = std::make_shared<Response>();
  slot->owner.store(1, std::memory_order_relaxed);
  slot->text = head + body;
  slot->ready.store(true, std::memory_order_release);
  conn->outgoing.push_back(std::move(slot));
  // One-shot: stop reading; the flush path closes once the response (and
  // nothing else — http connections never execute requests) drains.
  conn->reading = false;
  UpdateInterest(p, *conn);
  return true;
}

void EventLoop::AdoptConnection(Poller& p,
                                const std::shared_ptr<Connection>& conn) {
  p.conns.emplace(conn->fd, conn);
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.fd = conn->fd;
  ::epoll_ctl(p.epoll_fd, EPOLL_CTL_ADD, conn->fd, &ev);
}

void EventLoop::UpdateInterest(Poller& p, Connection& conn) {
  epoll_event ev{};
  ev.events = ((conn.reading && !conn.read_paused) ? EPOLLIN : 0u) |
              (conn.want_write ? EPOLLOUT : 0u);
  ev.data.fd = conn.fd;
  ::epoll_ctl(p.epoll_fd, EPOLL_CTL_MOD, conn.fd, &ev);
}

void EventLoop::ReadReady(Poller& p, const std::shared_ptr<Connection>& conn) {
  if (FaultHit("el.recv")) {  // injected connection reset on read
    CloseConnection(p, conn);
    return;
  }
  // Bounded rounds per tick so one flooding connection cannot starve the
  // rest of this poller; level-triggered epoll re-arms leftovers.
  char chunk[16384];
  for (int round = 0; round < 16; ++round) {
    const ssize_t n = ::recv(conn->fd, chunk, sizeof(chunk), 0);
    if (n > 0) {
      conn->last_activity = std::chrono::steady_clock::now();
      conn->in_buffer.append(chunk, static_cast<size_t>(n));
      continue;
    }
    if (n == 0) {
      // EOF: the peer may have half-closed and still expect the answers
      // to everything it pipelined — keep the write side until drained.
      conn->reading = false;
      UpdateInterest(p, *conn);
      break;
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    CloseConnection(p, conn);
    return;
  }
  if (conn->http) {
    if (!conn->closed) {
      HandleHttpRequest(p, conn);
      FlushConnection(p, conn);
    }
    return;
  }
  // Incremental line framing: whatever newline-terminated lines the buffer
  // now holds become pending requests; a partial tail stays buffered.
  size_t newline;
  bool oversized = false;
  while (!oversized &&
         (newline = conn->in_buffer.find('\n')) != std::string::npos) {
    if (options_.max_request_bytes > 0 &&
        newline > options_.max_request_bytes) {
      oversized = true;
      break;
    }
    conn->pending_lines.push_back(conn->in_buffer.substr(0, newline));
    conn->in_buffer.erase(0, newline + 1);
  }
  // A newline-less tail past the limit can never become a valid request;
  // without this check it would grow the in_buffer without bound.
  if (!oversized && options_.max_request_bytes > 0 &&
      conn->in_buffer.size() > options_.max_request_bytes) {
    oversized = true;
  }
  if (oversized) {
    server_->transport_counters().oversized_requests.fetch_add(
        1, std::memory_order_relaxed);
    auto slot = std::make_shared<Response>();
    slot->owner.store(1, std::memory_order_relaxed);
    slot->text = ErrorLine(
        nullptr, StatusCode::kInvalidArgument,
        StrFormat("request line exceeds --max-request-bytes=%llu; closing "
                  "connection",
                  static_cast<unsigned long long>(
                      options_.max_request_bytes)));
    slot->ready.store(true, std::memory_order_release);
    conn->outgoing.push_back(std::move(slot));
    // The stream is mid-garbage — resynchronizing on the next newline
    // would be a guess. Drop buffered input, stop reading; the connection
    // closes once the error line (and any in-flight response) flushes.
    conn->in_buffer.clear();
    conn->pending_lines.clear();
    conn->reading = false;
    UpdateInterest(p, *conn);
  }
  DispatchLines(p, conn);
}

void EventLoop::DispatchLines(Poller& p,
                              const std::shared_ptr<Connection>& conn) {
  Server::TransportCounters& counters = server_->transport_counters();
  static MetricGauge& inflight =
      MetricsRegistry::Get().GetGauge("serve.inflight");
  static MetricCounter& coalesce_hits =
      MetricsRegistry::Get().GetCounter("serve.coalesce_hits_total");
  // Serial per connection: dispatch the head line only once the previous
  // request's response slot exists — pipelined requests on one connection
  // keep blocking-transport semantics (and response order).
  while (!conn->executing && !conn->pending_lines.empty()) {
    const std::string line = std::move(conn->pending_lines.front());
    conn->pending_lines.pop_front();
    if (BlankOrComment(line)) continue;

    auto slot = std::make_shared<Response>();
    slot->span.start_ns = MonotonicNowNs();
    slot->has_span = true;
    Result<JsonValue> parsed = ParseJson(line);
    if (!parsed.ok()) {
      slot->span.SetOp("invalid");
      // Replay the raw line through HandleLine on a worker: its parse
      // error rendering is the canonical one, byte for byte.
      auto item = std::make_shared<WorkItem>();
      item->raw = true;
      item->line = line;
      item->waiters.push_back(WorkItem::Waiter{conn, slot, false, {}, {}});
      conn->outgoing.push_back(slot);
      conn->executing = true;
      conn->exec_slot = std::move(slot);
      conn->exec_has_id = false;
      if (options_.request_timeout_ms > 0) {
        conn->exec_deadline =
            std::chrono::steady_clock::now() +
            std::chrono::milliseconds(options_.request_timeout_ms);
      }
      counters.inflight_requests.fetch_add(1, std::memory_order_relaxed);
      inflight.Add(1);
      Enqueue(std::move(item));
      break;
    }
    const JsonValue* id =
        parsed.value().is_object() ? parsed.value().Find("id") : nullptr;

    // Request-level admission: in-flight requests — not connections — are
    // the bounded resource. Overflow answers immediately (with the
    // request's own id) instead of queueing unboundedly.
    if (options_.max_inflight > 0 &&
        counters.inflight_requests.load(std::memory_order_relaxed) >=
            options_.max_inflight) {
      counters.rejected_requests.fetch_add(1, std::memory_order_relaxed);
      slot->text = ErrorLine(
          id, StatusCode::kUnavailable,
          StrFormat("request limit (--max-inflight=%d) reached; retry "
                    "when in-flight requests drain",
                    options_.max_inflight));
      slot->ready.store(true, std::memory_order_release);
      conn->outgoing.push_back(std::move(slot));
      continue;
    }
    counters.inflight_requests.fetch_add(1, std::memory_order_relaxed);
    inflight.Add(1);

    const JsonValue* op =
        parsed.value().is_object() ? parsed.value().Find("op") : nullptr;
    slot->span.SetOp(op != nullptr && op->is_string()
                         ? op->string_value().c_str()
                         : "unknown");
    // Coalescability is a registry property of the op, not a transport
    // special case — today only q2 opts in.
    const OpInfo* op_info = op != nullptr && op->is_string()
                                ? FindOp(op->string_value())
                                : nullptr;
    const bool coalescable = options_.coalesce_q2 && op_info != nullptr &&
                             op_info->coalescable;
    WorkItem::Waiter waiter{conn, slot, id != nullptr,
                            id != nullptr ? *id : JsonValue(), {}};
    conn->outgoing.push_back(slot);
    conn->executing = true;
    conn->exec_slot = std::move(slot);
    conn->exec_has_id = id != nullptr;
    if (id != nullptr) conn->exec_id = *id;
    if (options_.request_timeout_ms > 0) {
      conn->exec_deadline =
          std::chrono::steady_clock::now() +
          std::chrono::milliseconds(options_.request_timeout_ms);
    }
    if (coalescable) {
      const std::string key = StripId(parsed.value()).Dump();
      bool merged = false;
      {
        std::lock_guard<std::mutex> lock(queue_mu_);
        const auto it = pending_q2_.find(key);
        if (it != pending_q2_.end()) {
          it->second->waiters.push_back(std::move(waiter));
          merged = true;
        }
      }
      if (merged) {
        counters.coalesced_requests.fetch_add(1, std::memory_order_relaxed);
        coalesce_hits.Add(1);
        break;
      }
      auto item = std::make_shared<WorkItem>();
      item->request = std::move(parsed).value();
      item->coalesce_key = key;
      item->waiters.push_back(std::move(waiter));
      Enqueue(std::move(item));
      break;
    }
    auto item = std::make_shared<WorkItem>();
    item->request = std::move(parsed).value();
    item->waiters.push_back(std::move(waiter));
    Enqueue(std::move(item));
    break;
  }
  FlushConnection(p, conn);
}

void EventLoop::FlushConnection(Poller& p,
                                const std::shared_ptr<Connection>& conn) {
  if (conn->closed) return;
  bool blocked = false;  // hit EAGAIN: the rest waits for EPOLLOUT
  while (!conn->outgoing.empty()) {
    Response& front = *conn->outgoing.front();
    if (!front.ready.load(std::memory_order_acquire)) break;
    while (conn->out_offset < front.text.size()) {
      if (FaultHit("el.send")) {  // injected peer reset mid-response
        CloseConnection(p, conn);
        return;
      }
      if (FaultHit("el.send_eagain")) {  // injected full socket buffer
        blocked = true;
        break;
      }
      size_t len = front.text.size() - conn->out_offset;
      if (len > 1 && FaultHit("el.send_short")) len = 1;  // partial write
      const ssize_t w = ::send(conn->fd, front.text.data() + conn->out_offset,
                               len, MSG_NOSIGNAL);
      if (w > 0) {
        conn->last_activity = std::chrono::steady_clock::now();
        conn->out_offset += static_cast<size_t>(w);
        continue;
      }
      if (w < 0 && errno == EINTR) continue;
      if (w < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
        blocked = true;
        break;
      }
      CloseConnection(p, conn);  // peer reset mid-response
      return;
    }
    if (blocked) break;
    // Flush completion finalizes the span — but only when the worker won
    // the owner handshake: after a deadline reap the worker may still be
    // writing the span fields, and a reaped request's timings are moot.
    if (front.has_span && front.owner.load(std::memory_order_acquire) == 1) {
      FinalizeSpan(front.span);
    }
    conn->outgoing.pop_front();
    conn->out_offset = 0;
  }
  if (blocked) {
    // Backpressure: park the rest of this response until EPOLLOUT.
    if (!conn->want_write) {
      conn->want_write = true;
      UpdateInterest(p, *conn);
    }
  } else if (conn->want_write) {
    conn->want_write = false;
    UpdateInterest(p, *conn);
  }

  // Slow-client bounds. Only ready slots are counted (an unready slot's
  // text belongs to the worker until the owner CAS resolves — and by
  // serial execution it is always the back slot, so the sum below sees
  // every flushable byte).
  size_t queued = 0;
  for (const std::shared_ptr<Response>& slot : conn->outgoing) {
    if (!slot->ready.load(std::memory_order_acquire)) break;
    queued += slot->text.size();
  }
  queued -= std::min(queued, conn->out_offset);
  if (queued != conn->backlog_gauge) {
    static MetricGauge& backlog =
        MetricsRegistry::Get().GetGauge("serve.output_backlog_bytes");
    backlog.Add(static_cast<int64_t>(queued) -
                static_cast<int64_t>(conn->backlog_gauge));
    conn->backlog_gauge = queued;
  }
  if (options_.max_output_bytes > 0 && queued >= options_.max_output_bytes) {
    // A reader this far behind costs memory on every queued response; the
    // cap converts "unbounded buffering" into a loud disconnect.
    server_->transport_counters().output_overflow_closed.fetch_add(
        1, std::memory_order_relaxed);
    CloseConnection(p, conn);
    return;
  }
  if (options_.output_hwm_bytes > 0) {
    if (!conn->read_paused && queued >= options_.output_hwm_bytes) {
      // Soft bound: stop reading new requests until the backlog halves —
      // the client feels the stall as TCP backpressure, not a close.
      conn->read_paused = true;
      UpdateInterest(p, *conn);
    } else if (conn->read_paused && queued <= options_.output_hwm_bytes / 2) {
      conn->read_paused = false;
      UpdateInterest(p, *conn);
    }
  }
  // Nothing further can ever flow: no reads coming (EOF or stop), nothing
  // pending, nothing executing, nothing to flush.
  if (!conn->reading && conn->outgoing.empty() &&
      conn->pending_lines.empty() && !conn->executing) {
    CloseConnection(p, conn);
  }
}

void EventLoop::CloseConnection(Poller& p,
                                const std::shared_ptr<Connection>& conn) {
  if (conn->closed) return;
  conn->closed = true;
  ::epoll_ctl(p.epoll_fd, EPOLL_CTL_DEL, conn->fd, nullptr);
  ::close(conn->fd);
  p.conns.erase(conn->fd);
  if (conn->backlog_gauge > 0) {
    static MetricGauge& backlog =
        MetricsRegistry::Get().GetGauge("serve.output_backlog_bytes");
    backlog.Sub(static_cast<int64_t>(conn->backlog_gauge));
    conn->backlog_gauge = 0;
  }
  // Metrics-listener connections were never admitted as transport
  // connections, so they must not drain the transport's count either.
  if (conn->http) return;
  server_->transport_counters().active_connections.fetch_sub(
      1, std::memory_order_relaxed);
  static MetricGauge& active =
      MetricsRegistry::Get().GetGauge("serve.active_connections");
  active.Sub(1);
}

void EventLoop::Enqueue(std::shared_ptr<WorkItem> item) {
  static MetricGauge& depth =
      MetricsRegistry::Get().GetGauge("serve.queue_depth");
  depth.Add(1);
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    if (!item->coalesce_key.empty()) {
      pending_q2_.emplace(item->coalesce_key, item);
    }
    queue_.push_back(std::move(item));
  }
  queue_cv_.notify_one();
}

void EventLoop::WorkerLoop() {
  while (true) {
    std::shared_ptr<WorkItem> item;
    {
      std::unique_lock<std::mutex> lock(queue_mu_);
      queue_cv_.wait(lock,
                     [this] { return workers_stop_ || !queue_.empty(); });
      if (queue_.empty()) return;  // workers_stop_ and fully drained
      item = std::move(queue_.front());
      queue_.pop_front();
      static MetricGauge& depth =
          MetricsRegistry::Get().GetGauge("serve.queue_depth");
      depth.Sub(1);
      // Started items stop accepting coalesce joiners: a request arriving
      // now may be ordered after a write this evaluation won't see.
      if (!item->coalesce_key.empty()) {
        pending_q2_.erase(item->coalesce_key);
      }
    }
    Execute(*item);
    Complete(*item);
  }
}

void EventLoop::Execute(WorkItem& item) {
  // Deadline fast path: when every waiter's slot was already claimed by
  // the reaper (a long queueing delay ate the whole budget), the answer
  // would be discarded anyway — skip the evaluation. Racing a reaper that
  // claims mid-execute is fine: the CAS in Complete discards the result.
  bool any_unclaimed = false;
  for (const WorkItem::Waiter& waiter : item.waiters) {
    if (waiter.slot->owner.load(std::memory_order_acquire) == 0) {
      any_unclaimed = true;
      break;
    }
  }
  if (!any_unclaimed) return;
  static MetricHistogram& exec_ns =
      MetricsRegistry::Get().GetHistogram("serve.exec_ns");
  // Execution detail lands on the head waiter's span; coalesced joiners
  // share the evaluation, so their spans carry dispatch/flush times only.
  // The worker owns these span fields until the owner CAS in Complete —
  // the poller reads them only after winning slots flip ready (and skips
  // deadline-reaped slots entirely).
  RequestSpan* span = item.waiters[0].slot->has_span
                          ? &item.waiters[0].slot->span
                          : nullptr;
  const uint64_t exec_start = MonotonicNowNs();
  if (span != nullptr) {
    span->phase_ns[kSpanQueueWait] = exec_start - span->start_ns;
  }
  ScopedActiveSpan active(span);
  (void)FaultHit("serve.exec");  // sleep rules stall execution here
  if (item.raw) {
    std::string text = server_->HandleLine(item.line);
    if (!text.empty()) text.push_back('\n');
    item.waiters[0].rendered = std::move(text);
    exec_ns.Record(MonotonicNowNs() - exec_start);
    return;
  }
  if (item.waiters.size() == 1) {
    const JsonValue response = server_->HandleRequest(item.request);
    std::string text;
    {
      ScopedSpanPhase phase(kSpanSerialize);
      text = response.Dump();
    }
    text.push_back('\n');
    item.waiters[0].rendered = std::move(text);
    exec_ns.Record(MonotonicNowNs() - exec_start);
    return;
  }
  // Coalesced group: evaluate once without any id, then fan the response
  // back out with each waiter's own id in the canonical first position.
  const JsonValue base = server_->HandleRequest(StripId(item.request));
  {
    ScopedSpanPhase phase(kSpanSerialize);
    for (WorkItem::Waiter& waiter : item.waiters) {
      std::string text;
      if (!waiter.has_id) {
        text = base.Dump();
      } else {
        JsonValue response = JsonValue::MakeObject();
        response.Set("id", waiter.id);
        for (const JsonValue::Member& member : base.object()) {
          response.Set(member.first, member.second);
        }
        text = response.Dump();
      }
      text.push_back('\n');
      waiter.rendered = std::move(text);
    }
  }
  exec_ns.Record(MonotonicNowNs() - exec_start);
}

void EventLoop::Complete(WorkItem& item) {
  Server::TransportCounters& counters = server_->transport_counters();
  static MetricCounter& requests =
      MetricsRegistry::Get().GetCounter("serve.requests_total");
  static MetricGauge& inflight =
      MetricsRegistry::Get().GetGauge("serve.inflight");
  counters.inflight_requests.fetch_sub(
      static_cast<int>(item.waiters.size()), std::memory_order_relaxed);
  requests.Add(item.waiters.size());
  inflight.Sub(static_cast<int64_t>(item.waiters.size()));
  for (WorkItem::Waiter& waiter : item.waiters) {
    // The owner CAS against the deadline reaper: install the rendering
    // only if the slot is still ours. A lost race means the poller
    // already answered DeadlineExceeded — the result is discarded whole,
    // never half-written over the error line.
    int unclaimed = 0;
    if (waiter.slot->owner.compare_exchange_strong(
            unclaimed, 1, std::memory_order_acq_rel)) {
      waiter.slot->text = std::move(waiter.rendered);
      if (waiter.slot->has_span) {
        waiter.slot->span.ready_ns = MonotonicNowNs();
      }
      waiter.slot->ready.store(true, std::memory_order_release);
    }
    // The completion is handed back either way: it is what releases the
    // connection's serial-execution latch.
    Poller& p = *pollers_[static_cast<size_t>(waiter.conn->poller)];
    {
      std::lock_guard<std::mutex> lock(p.mu);
      p.completions.push_back(std::move(waiter.conn));
    }
  }
  Wake();
}

void EventLoop::FinalizeSpan(RequestSpan& span) {
  static MetricHistogram& request_ns =
      MetricsRegistry::Get().GetHistogram("serve.request_ns");
  static MetricHistogram& queue_wait_ns =
      MetricsRegistry::Get().GetHistogram("serve.queue_wait_ns");
  const uint64_t now = MonotonicNowNs();
  if (span.ready_ns != 0) {
    span.phase_ns[kSpanFlush] = now - span.ready_ns;
  }
  span.total_ns = now - span.start_ns;
  request_ns.Record(span.total_ns);
  queue_wait_ns.Record(span.phase_ns[kSpanQueueWait]);
  GlobalSpanRing().Push(span);
  if (options_.slow_request_ms <= 0 ||
      span.total_ns <
          static_cast<uint64_t>(options_.slow_request_ms) * 1000000ULL) {
    return;
  }
  static MetricCounter& slow =
      MetricsRegistry::Get().GetCounter("serve.slow_requests_total");
  slow.Add(1);
  JsonValue entry = JsonValue::MakeObject();
  entry.Set("event", JsonValue("slow_request"));
  entry.Set("op", JsonValue(std::string(span.op)));
  entry.Set("threshold_ms", JsonValue(options_.slow_request_ms));
  entry.Set("total_ms",
            JsonValue(static_cast<double>(span.total_ns) / 1e6));
  JsonValue phases = JsonValue::MakeObject();
  for (int ph = 0; ph < kSpanPhaseCount; ++ph) {
    phases.Set(SpanPhaseName(ph),
               JsonValue(static_cast<double>(span.phase_ns[ph]) / 1e6));
  }
  entry.Set("phases_ms", std::move(phases));
  const std::string line = entry.Dump();
  if (options_.slow_log) {
    options_.slow_log(line);
  } else {
    std::fprintf(stderr, "%s\n", line.c_str());
  }
}

}  // namespace cpclean
