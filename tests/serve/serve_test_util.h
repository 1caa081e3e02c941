// Shared plumbing for the serve-layer tests: a blocking line-protocol TCP
// client, a scoped descriptor-limit guard, the open-descriptor listing and
// small JSON response helpers.

#ifndef CPCLEAN_TESTS_SERVE_SERVE_TEST_UTIL_H_
#define CPCLEAN_TESTS_SERVE_SERVE_TEST_UTIL_H_

#include <dirent.h>
#include <netinet/in.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "serve/json.h"

namespace cpclean {
namespace serve_test {

/// A synchronous line-protocol client over one loopback TCP connection.
class LineClient {
 public:
  /// Opens the socket only; `Connect` dials (tests that must own the
  /// descriptor before the process runs out of them).
  LineClient() : fd_(::socket(AF_INET, SOCK_STREAM, 0)) {}
  explicit LineClient(int port) : LineClient() { Connect(port); }
  ~LineClient() {
    if (fd_ >= 0) ::close(fd_);
  }
  bool Connect(int port) {
    sockaddr_in addr;
    std::memset(&addr, 0, sizeof(addr));
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(static_cast<uint16_t>(port));
    connected_ = ::connect(fd_, reinterpret_cast<sockaddr*>(&addr),
                           sizeof(addr)) == 0;
    return connected_;
  }
  bool connected() const { return connected_; }

  /// Bounds every later ReadLine wait (a read that times out returns ""),
  /// so a server that never answers fails the test instead of hanging it.
  void SetReadTimeout(int ms) {
    timeval tv{};
    tv.tv_sec = ms / 1000;
    tv.tv_usec = (ms % 1000) * 1000;
    ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  }

  /// Reads one response line without sending anything first (e.g. the
  /// admission-control rejection pushed by the server on accept). Returns
  /// "" on EOF.
  std::string ReadLine() {
    size_t newline;
    while ((newline = buffer_.find('\n')) == std::string::npos) {
      char chunk[4096];
      const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
      if (n <= 0) return "";
      buffer_.append(chunk, static_cast<size_t>(n));
    }
    const std::string response = buffer_.substr(0, newline);
    buffer_.erase(0, newline + 1);
    return response;
  }

  /// Sends raw bytes without waiting for a response (pipelining and
  /// partial-line framing tests). Returns false on a transport failure.
  bool Send(const std::string& bytes) {
    size_t sent = 0;
    while (sent < bytes.size()) {
      const ssize_t w = ::send(fd_, bytes.data() + sent,
                               bytes.size() - sent, MSG_NOSIGNAL);
      if (w <= 0) return false;
      sent += static_cast<size_t>(w);
    }
    return true;
  }

  /// Sends one request line, returns the matching response line ("" on a
  /// transport failure).
  std::string Issue(const std::string& line) {
    std::string request = line;
    request.push_back('\n');
    size_t sent = 0;
    while (sent < request.size()) {
      // MSG_NOSIGNAL: a racing server-side close must surface as an empty
      // response, not a SIGPIPE.
      const ssize_t w = ::send(fd_, request.data() + sent,
                               request.size() - sent, MSG_NOSIGNAL);
      if (w <= 0) return "";
      sent += static_cast<size_t>(w);
    }
    return ReadLine();
  }

 private:
  int fd_ = -1;
  bool connected_ = false;
  std::string buffer_;
};

/// Lowers the soft RLIMIT_NOFILE to `soft` for the scope; the destructor
/// restores it, so a failed assertion inside the scope cannot starve the
/// tests after it of descriptors.
class ScopedFdLimit {
 public:
  explicit ScopedFdLimit(rlim_t soft) {
    saved_ok_ = ::getrlimit(RLIMIT_NOFILE, &saved_) == 0;
    rlimit lowered = saved_;
    lowered.rlim_cur = soft;
    ok_ = saved_ok_ && soft <= saved_.rlim_cur &&
          ::setrlimit(RLIMIT_NOFILE, &lowered) == 0;
  }
  ~ScopedFdLimit() { Restore(); }
  ScopedFdLimit(const ScopedFdLimit&) = delete;
  ScopedFdLimit& operator=(const ScopedFdLimit&) = delete;

  bool ok() const { return ok_; }
  void Restore() {
    if (saved_ok_) ::setrlimit(RLIMIT_NOFILE, &saved_);
    saved_ok_ = false;
  }

 private:
  rlimit saved_{};
  bool saved_ok_ = false;
  bool ok_ = false;
};

/// The process's open descriptors, ascending (the listing's own aside).
inline std::vector<int> OpenFds() {
  std::vector<int> fds;
  DIR* dir = ::opendir("/proc/self/fd");
  if (dir == nullptr) return fds;
  const int own = ::dirfd(dir);
  while (const dirent* entry = ::readdir(dir)) {
    if (entry->d_name[0] == '.') continue;
    const int fd = std::atoi(entry->d_name);
    if (fd != own) fds.push_back(fd);
  }
  ::closedir(dir);
  std::sort(fds.begin(), fds.end());
  return fds;
}

/// Parses a response line, asserts ok:true, and returns its result object
/// (empty on any malformed/error response, so a server regression shows a
/// readable test failure instead of a null-deref crash).
inline JsonValue ParseOk(const std::string& response) {
  auto parsed = ParseJson(response);
  EXPECT_TRUE(parsed.ok()) << response;
  if (!parsed.ok()) return JsonValue();
  const JsonValue* ok = parsed.value().Find("ok");
  EXPECT_NE(ok, nullptr) << response;
  EXPECT_TRUE(ok != nullptr && ok->bool_value()) << response;
  const JsonValue* result = parsed.value().Find("result");
  if (result == nullptr) {
    ADD_FAILURE() << "response carries no result: " << response;
    return JsonValue();
  }
  return *result;
}

inline std::vector<double> NumberArray(const JsonValue& v) {
  std::vector<double> out;
  for (const JsonValue& x : v.array()) out.push_back(x.number_value());
  return out;
}

}  // namespace serve_test
}  // namespace cpclean

#endif  // CPCLEAN_TESTS_SERVE_SERVE_TEST_UTIL_H_
