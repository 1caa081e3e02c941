#include "server_client.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <fstream>
#include <thread>

namespace perfbench {

using cpclean::JsonValue;
using cpclean::Result;
using cpclean::Status;

namespace {

/// Reads the port from the server's "listening on 127.0.0.1:<port>" line.
int ParseAnnouncedPort(const std::string& log_path) {
  std::ifstream log(log_path);
  std::string line;
  const std::string marker = "listening on 127.0.0.1:";
  while (std::getline(log, line)) {
    const size_t at = line.find(marker);
    if (at != std::string::npos) {
      return std::atoi(line.c_str() + at + marker.size());
    }
  }
  return -1;
}

/// Waits for `pid` to exit for up to `timeout_ms`; true when it was reaped.
bool WaitExit(pid_t pid, int timeout_ms, int* status) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(timeout_ms);
  while (true) {
    const pid_t done = waitpid(pid, status, WNOHANG);
    if (done == pid) return true;
    if (done < 0 && errno != EINTR) return true;  // not our child any more
    if (std::chrono::steady_clock::now() >= deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
}

}  // namespace

Result<std::unique_ptr<ServerProcess>> ServerProcess::Start(
    const std::string& binary, const std::vector<std::string>& args,
    const std::string& log_path, int timeout_ms) {
  std::vector<std::string> argv_storage = {binary, "--port=0"};
  argv_storage.insert(argv_storage.end(), args.begin(), args.end());
  std::vector<char*> argv;
  for (std::string& arg : argv_storage) argv.push_back(arg.data());
  argv.push_back(nullptr);

  const int log_fd =
      open(log_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (log_fd < 0) {
    return Status::IoError("cannot open server log " + log_path);
  }
  std::unique_ptr<ServerProcess> server(new ServerProcess());
  server->pid_ = fork();
  if (server->pid_ < 0) {
    close(log_fd);
    return Status::IoError("fork failed");
  }
  if (server->pid_ == 0) {
    // The server must not outlive the benchmark, however it ends.
    prctl(PR_SET_PDEATHSIG, SIGKILL);
    const int devnull = open("/dev/null", O_RDONLY);
    if (devnull >= 0) dup2(devnull, STDIN_FILENO);
    dup2(log_fd, STDOUT_FILENO);
    dup2(log_fd, STDERR_FILENO);
    execv(binary.c_str(), argv.data());
    _exit(127);
  }
  close(log_fd);
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(timeout_ms);
  while (server->port_ < 0) {
    server->port_ = ParseAnnouncedPort(log_path);
    if (server->port_ >= 0) break;
    int status = 0;
    if (waitpid(server->pid_, &status, WNOHANG) == server->pid_) {
      server->pid_ = -1;
      return Status::Internal("cpclean_server exited during start-up; see " +
                              log_path);
    }
    if (std::chrono::steady_clock::now() >= deadline) {
      return Status::DeadlineExceeded("cpclean_server did not announce a port");
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return server;
}

ServerProcess::~ServerProcess() {
  if (pid_ > 0) Stop(5000);
}

double ServerProcess::PeakRssMb() const {
  std::ifstream status("/proc/" + std::to_string(pid_) + "/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB -> MiB
    }
  }
  return 0.0;
}

bool ServerProcess::Stop(int timeout_ms) {
  if (pid_ <= 0) return false;
  int status = 0;
  kill(pid_, SIGTERM);
  bool clean = WaitExit(pid_, timeout_ms, &status);
  if (!clean) {
    kill(pid_, SIGKILL);
    WaitExit(pid_, 5000, &status);
  }
  pid_ = -1;
  return clean && WIFEXITED(status) && WEXITSTATUS(status) == 0;
}

Result<std::unique_ptr<LineClient>> LineClient::Connect(int port) {
  const int fd = socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return Status::IoError("socket failed");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    close(fd);
    return Status::IoError("connect to 127.0.0.1:" + std::to_string(port) +
                           " failed");
  }
  const int one = 1;
  setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  // A request that takes longer than this counts as a transport failure.
  timeval timeout{};
  timeout.tv_sec = 60;
  setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
  return std::unique_ptr<LineClient>(new LineClient(fd));
}

LineClient::~LineClient() {
  if (fd_ >= 0) close(fd_);
}

std::string LineClient::RoundTrip(const std::string& line) {
  if (fd_ < 0) return "";
  const std::string framed = line + "\n";
  size_t sent = 0;
  while (sent < framed.size()) {
    const ssize_t n =
        send(fd_, framed.data() + sent, framed.size() - sent, MSG_NOSIGNAL);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) {
      close(fd_);
      fd_ = -1;
      return "";
    }
    sent += static_cast<size_t>(n);
  }
  while (true) {
    const size_t newline = buffer_.find('\n');
    if (newline != std::string::npos) {
      std::string response = buffer_.substr(0, newline);
      buffer_.erase(0, newline + 1);
      return response;
    }
    char chunk[65536];
    const ssize_t n = recv(fd_, chunk, sizeof(chunk), 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) {
      close(fd_);
      fd_ = -1;
      return "";
    }
    buffer_.append(chunk, static_cast<size_t>(n));
  }
}

Result<JsonValue> Call(LineClient* client, const JsonValue& request) {
  const std::string response = client->RoundTrip(request.Dump());
  const JsonValue* op = request.Find("op");
  const std::string name = op != nullptr ? op->string_value() : "?";
  if (response.empty()) {
    return Status::IoError(name + ": no response from the server");
  }
  Result<JsonValue> parsed = cpclean::ParseJson(response);
  if (!parsed.ok()) return parsed.status();
  const JsonValue* ok = parsed.value().Find("ok");
  const JsonValue* result = parsed.value().Find("result");
  if (ok == nullptr || !ok->is_bool() || !ok->bool_value() ||
      result == nullptr) {
    return Status::Internal(name + " failed: " + response);
  }
  return *result;
}

}  // namespace perfbench
