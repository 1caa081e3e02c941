#ifndef PERFBENCH_SERVER_CLIENT_H_
#define PERFBENCH_SERVER_CLIENT_H_

// The two halves of driving the shipped cpclean_server from outside: a
// child process that owns the server (started with --port=0, its port read
// from the announcement on stderr, stopped with SIGTERM and reaped), and a
// blocking line-protocol client over loopback TCP.

#include <sys/types.h>

#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "serve/json.h"

namespace perfbench {

class ServerProcess {
 public:
  /// Starts `binary` with `args` (plus --port=0), logging to `log_path`,
  /// and waits up to `timeout_ms` for it to announce its port.
  static cpclean::Result<std::unique_ptr<ServerProcess>> Start(
      const std::string& binary, const std::vector<std::string>& args,
      const std::string& log_path, int timeout_ms = 30000);

  ~ServerProcess();
  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  int port() const { return port_; }
  pid_t pid() const { return pid_; }

  /// The server's peak resident set (VmHWM) in MiB; 0 when unreadable.
  double PeakRssMb() const;

  /// SIGTERM, wait for exit (SIGKILL after `timeout_ms`). Returns true
  /// when the server exited on its own with status 0.
  bool Stop(int timeout_ms = 20000);

 private:
  ServerProcess() = default;
  pid_t pid_ = -1;
  int port_ = -1;
};

/// One blocking TCP connection speaking the line protocol.
class LineClient {
 public:
  static cpclean::Result<std::unique_ptr<LineClient>> Connect(int port);
  ~LineClient();
  LineClient(const LineClient&) = delete;
  LineClient& operator=(const LineClient&) = delete;

  /// Sends `line` and returns the response line, or "" on any transport
  /// failure (the connection is unusable afterwards).
  std::string RoundTrip(const std::string& line);

 private:
  explicit LineClient(int fd) : fd_(fd) {}
  int fd_;
  std::string buffer_;
};

/// Round-trips `request` and returns its `result`, or an error naming the
/// op and the server's answer. For set-up and check traffic, where any
/// failure aborts the run.
cpclean::Result<cpclean::JsonValue> Call(LineClient* client,
                                         const cpclean::JsonValue& request);

}  // namespace perfbench

#endif  // PERFBENCH_SERVER_CLIENT_H_
