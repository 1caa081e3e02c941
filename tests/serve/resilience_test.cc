// The TCP transport's resilience contract under deterministic fault
// injection: per-request deadlines answer DeadlineExceeded (with the
// request's id) while the connection survives and the late result is
// discarded whole; oversized request lines are refused loudly; EMFILE on
// accept turns the surplus connection away with a structured line, or
// parks the listener until a backoff retry can accept it; a
// client resetting mid-response never takes the server down; a stalled
// reader is paused at the high-water mark and closed at the hard cap;
// idle connections are reaped; and the test-only fault_inject op is
// gated on explicit arming.

#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

#include "common/fault_injection.h"
#include "common/string_util.h"
#include "serve/server.h"
#include "tests/serve/serve_test_util.h"

namespace cpclean {
namespace {

using serve_test::LineClient;
using serve_test::OpenFds;
using serve_test::ParseOk;
using serve_test::ScopedFdLimit;

class ResilienceTest : public ::testing::Test {
 protected:
  // Fault rules are process-global; every test starts and ends clean.
  void SetUp() override { FaultInjection::Clear(); }
  void TearDown() override { FaultInjection::Clear(); }
};

/// Starts `server` on an ephemeral port on a background thread and waits
/// for the listener.
std::thread Serve(Server& server) {
  std::thread serving([&server] {
    const Status status = server.ServeTcp(0);
    EXPECT_TRUE(status.ok()) << status.ToString();
  });
  while (server.port() == -1) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_GE(server.port(), 0);
  return serving;
}

/// The "error" object of a response line; asserts ok:false.
JsonValue ParseError(const std::string& response) {
  auto parsed = ParseJson(response);
  EXPECT_TRUE(parsed.ok()) << response;
  if (!parsed.ok()) return JsonValue();
  const JsonValue* ok = parsed.value().Find("ok");
  EXPECT_TRUE(ok != nullptr && ok->is_bool() && !ok->bool_value())
      << response;
  const JsonValue* error = parsed.value().Find("error");
  if (error == nullptr) {
    ADD_FAILURE() << "response carries no error: " << response;
    return JsonValue();
  }
  return *error;
}

uint64_t ConnectionCounter(Server& server, const char* key) {
  const JsonValue stats = ParseOk(server.HandleLine("{\"op\":\"stats\"}"));
  return static_cast<uint64_t>(
      stats.Find("connections")->Find(key)->number_value());
}

TEST_F(ResilienceTest, DeadlineAnswersWithIdAndConnectionSurvives) {
  ServerOptions options;
  options.request_timeout_ms = 80;
  Server server(options);
  std::thread serving = Serve(server);
  LineClient client(server.port());
  ASSERT_TRUE(client.connected());

  // Stall execution far past the deadline. The reaper, not the worker,
  // answers — and the connection keeps working afterwards.
  ASSERT_TRUE(FaultInjection::Configure("serve.exec=sleep:500").ok());
  const std::string response = client.Issue("{\"op\":\"ping\",\"id\":77}");
  const auto parsed = ParseJson(response);
  ASSERT_TRUE(parsed.ok()) << response;
  EXPECT_EQ(static_cast<int>(parsed.value().Find("id")->number_value()), 77);
  const JsonValue error = ParseError(response);
  EXPECT_EQ(error.Find("code")->string_value(), "Deadline exceeded");

  // The worker is still sleeping; the next request queues behind it
  // (serial per connection) and then answers normally — the late result
  // of the expired request was discarded whole, never leaked into this
  // slot or torn mid-line.
  FaultInjection::Clear();
  Server twin;
  EXPECT_EQ(client.Issue("{\"op\":\"ping\",\"id\":78}"),
            twin.HandleLine("{\"op\":\"ping\",\"id\":78}"));
  EXPECT_GE(ConnectionCounter(server, "deadline_expired"), 1u);

  server.Stop();
  serving.join();
}

TEST_F(ResilienceTest, OversizedRequestLineRefusedLoudlyThenClosed) {
  ServerOptions options;
  options.max_request_bytes = 256;
  Server server(options);
  std::thread serving = Serve(server);

  {
    LineClient client(server.port());
    ASSERT_TRUE(client.connected());
    ASSERT_TRUE(client.Send(std::string(300, 'x') + "\n"));
    const JsonValue error = ParseError(client.ReadLine());
    EXPECT_EQ(error.Find("code")->string_value(), "Invalid argument");
    EXPECT_NE(error.Find("message")->string_value().find(
                  "max-request-bytes"),
              std::string::npos);
    EXPECT_EQ(client.ReadLine(), "");  // connection closed behind the error
  }
  {
    // A newline-less flood past the limit is cut off too, without waiting
    // for a newline that may never come.
    LineClient client(server.port());
    ASSERT_TRUE(client.connected());
    ASSERT_TRUE(client.Send(std::string(100000, 'y')));
    const JsonValue error = ParseError(client.ReadLine());
    EXPECT_EQ(error.Find("code")->string_value(), "Invalid argument");
    EXPECT_EQ(client.ReadLine(), "");
  }
  // The server itself is fine.
  LineClient after(server.port());
  ASSERT_TRUE(after.connected());
  Server twin;
  EXPECT_EQ(after.Issue("{\"op\":\"ping\",\"id\":1}"),
            twin.HandleLine("{\"op\":\"ping\",\"id\":1}"));
  EXPECT_GE(ConnectionCounter(server, "oversized_requests"), 2u);

  server.Stop();
  serving.join();
}

TEST_F(ResilienceTest, EmfileOnAcceptTurnsTheConnectionAwayLoudly) {
  Server server;
  std::thread serving = Serve(server);

  // Simulated fd-table exhaustion on the next accept: the reserve-fd path
  // must still accept the surplus connection and tell it why it is being
  // turned away, instead of leaving it dangling in the backlog.
  ASSERT_TRUE(FaultInjection::Configure("el.accept=once").ok());
  LineClient rejected(server.port());
  ASSERT_TRUE(rejected.connected());
  const JsonValue error = ParseError(rejected.ReadLine());
  EXPECT_EQ(error.Find("code")->string_value(), "Unavailable");
  EXPECT_NE(error.Find("message")->string_value().find("file descriptors"),
            std::string::npos);
  EXPECT_EQ(rejected.ReadLine(), "");

  // One-shot fault: the next connection gets normal service.
  LineClient accepted(server.port());
  ASSERT_TRUE(accepted.connected());
  Server twin;
  EXPECT_EQ(accepted.Issue("{\"op\":\"ping\",\"id\":9}"),
            twin.HandleLine("{\"op\":\"ping\",\"id\":9}"));

  server.Stop();
  serving.join();
}

TEST_F(ResilienceTest, ParkedListenerRetriesAndServesTheWaitingClient) {
  Server server;
  std::thread serving = Serve(server);
  Server twin;
  const std::string ping = "{\"op\":\"ping\",\"id\":5}";
  {
    // The port is published before the loop opens its own descriptors;
    // an answered ping shows they are open before the table is cut off.
    LineClient warm(server.port());
    ASSERT_EQ(warm.Issue(ping), twin.HandleLine(ping));
  }
  const std::atomic<uint64_t>& rejected =
      server.transport_counters().rejected_connections;
  const uint64_t rejected_before = rejected.load();
  // The warm connection's server half closes once the loop reads its EOF.
  const std::atomic<int>& active =
      server.transport_counters().active_connections;
  const auto closed_by =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (active.load() != 0 && std::chrono::steady_clock::now() < closed_by) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_EQ(active.load(), 0);
  const size_t fds_before = OpenFds().size();

  // The client owns its socket before the process runs out of
  // descriptors. With the soft limit at 0 not even the victim accept that
  // the freed reserve fd makes room for can succeed, so the loop parks
  // the listener; the connection waits in the kernel backlog.
  LineClient client;
  client.SetReadTimeout(10000);
  {
    ScopedFdLimit limit(0);
    ASSERT_TRUE(limit.ok());
    ASSERT_TRUE(client.Connect(server.port()));
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(5);
    while (rejected.load() == rejected_before &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    // The count moves before the victim accept is tried; hold the limit
    // until that attempt has failed too. The next retry is a full poll
    // tick (100 ms) away.
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  EXPECT_GT(rejected.load(), rejected_before);

  // Descriptors are back: the backoff re-arms the listener, and the same
  // client — never turned away — gets normal service.
  EXPECT_EQ(client.Issue(ping), twin.HandleLine(ping));
  // The episode cashed in the EMFILE reserve and could not reopen it under
  // the zero limit; the re-arm takes it back, so the only new descriptors
  // are the client's socket and its accepted connection.
  EXPECT_EQ(OpenFds().size(), fds_before + 2);

  server.Stop();
  serving.join();
}

TEST_F(ResilienceTest, MidResponseResetNeverTakesTheServerDown) {
  Server server;
  std::thread serving = Serve(server);
  Server twin;

  {
    // Injected EPIPE on the very first response write.
    ASSERT_TRUE(FaultInjection::Configure("el.send=once").ok());
    LineClient client(server.port());
    ASSERT_TRUE(client.connected());
    EXPECT_EQ(client.Issue("{\"op\":\"ping\",\"id\":1}"), "");
    FaultInjection::Clear();
  }
  {
    // Injected reset on read.
    ASSERT_TRUE(FaultInjection::Configure("el.recv=once").ok());
    LineClient client(server.port());
    ASSERT_TRUE(client.connected());
    EXPECT_EQ(client.Issue("{\"op\":\"ping\",\"id\":2}"), "");
    FaultInjection::Clear();
  }
  {
    // A real client reset: SO_LINGER(0) close sends RST, so the server's
    // response write hits ECONNRESET/EPIPE on a live kernel socket. The
    // MSG_NOSIGNAL send must absorb it — no SIGPIPE, no crash.
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    ASSERT_GE(fd, 0);
    sockaddr_in addr;
    std::memset(&addr, 0, sizeof(addr));
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(static_cast<uint16_t>(server.port()));
    ASSERT_EQ(
        ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
    const std::string request = "{\"op\":\"ping\",\"id\":3}\n";
    ASSERT_EQ(::send(fd, request.data(), request.size(), MSG_NOSIGNAL),
              static_cast<ssize_t>(request.size()));
    linger hard_reset{1, 0};
    ::setsockopt(fd, SOL_SOCKET, SO_LINGER, &hard_reset,
                 sizeof(hard_reset));
    ::close(fd);
  }
  // After all three, the server still serves byte-identical responses.
  LineClient after(server.port());
  ASSERT_TRUE(after.connected());
  EXPECT_EQ(after.Issue("{\"op\":\"ping\",\"id\":4}"),
            twin.HandleLine("{\"op\":\"ping\",\"id\":4}"));

  server.Stop();
  serving.join();
}

TEST_F(ResilienceTest, PartialWritesWithEagainStillDeliverExactBytes) {
  Server server;
  std::thread serving = Serve(server);
  // One byte per send, and every third attempt EAGAINs: the response
  // crosses many flush rounds and EPOLLOUT re-entries, and must still
  // arrive byte-identical to the canonical rendering.
  ASSERT_TRUE(FaultInjection::Configure(
                  "el.send_short=always;el.send_eagain=every:3")
                  .ok());
  LineClient client(server.port());
  ASSERT_TRUE(client.connected());
  Server twin;
  for (int i = 0; i < 3; ++i) {
    const std::string request = StrFormat("{\"op\":\"ping\",\"id\":%d}", i);
    EXPECT_EQ(client.Issue(request), twin.HandleLine(request));
  }
  FaultInjection::Clear();
  server.Stop();
  serving.join();
}

TEST_F(ResilienceTest, StalledReaderIsBoundedThenClosedAtTheCap) {
  ServerOptions options;
  options.output_hwm_bytes = 2048;
  options.max_output_bytes = 8192;
  Server server(options);
  std::thread serving = Serve(server);

  // The socket "fills" instantly, so every response queues server-side
  // while the client pipelines away without reading — the classic
  // stalled-reader leak. The hwm pauses its reads; the cap closes it.
  ASSERT_TRUE(FaultInjection::Configure("el.send_eagain=always").ok());
  LineClient stalled(server.port());
  ASSERT_TRUE(stalled.connected());
  std::string block;
  for (int i = 0; i < 600; ++i) {
    block += StrFormat("{\"op\":\"ping\",\"id\":%d}\n", i);
  }
  ASSERT_TRUE(stalled.Send(block));
  // The close is the observable: recv sees FIN/RST once queued output
  // passes max_output_bytes.
  EXPECT_EQ(stalled.ReadLine(), "");

  FaultInjection::Clear();
  EXPECT_GE(ConnectionCounter(server, "overflow_closed"), 1u);
  // The server (and new connections) are unaffected.
  LineClient after(server.port());
  ASSERT_TRUE(after.connected());
  Server twin;
  EXPECT_EQ(after.Issue("{\"op\":\"ping\",\"id\":1}"),
            twin.HandleLine("{\"op\":\"ping\",\"id\":1}"));

  server.Stop();
  serving.join();
}

TEST_F(ResilienceTest, IdleConnectionsAreReaped) {
  ServerOptions options;
  options.idle_timeout_ms = 100;
  Server server(options);
  std::thread serving = Serve(server);

  LineClient client(server.port());
  ASSERT_TRUE(client.connected());
  Server twin;
  EXPECT_EQ(client.Issue("{\"op\":\"ping\",\"id\":1}"),
            twin.HandleLine("{\"op\":\"ping\",\"id\":1}"));
  // Go quiet; the reaper closes the connection (recv returns 0).
  EXPECT_EQ(client.ReadLine(), "");
  EXPECT_GE(ConnectionCounter(server, "idle_reaped"), 1u);

  server.Stop();
  serving.join();
}

TEST_F(ResilienceTest, FaultInjectOpIsGatedAndRoundtrips) {
  Server server;
  if (std::getenv("CPCLEAN_FAULTS") == nullptr &&
      !FaultInjection::OpsArmed()) {
    // Unarmed (no env, no ArmOps yet in this process): the op must refuse
    // — a production client cannot start injecting faults over the wire.
    const JsonValue error = ParseError(server.HandleLine(
        "{\"op\":\"fault_inject\",\"config\":\"serve.exec=once\"}"));
    EXPECT_EQ(error.Find("code")->string_value(), "Unavailable");
  }
  FaultInjection::ArmOps();
  JsonValue result = ParseOk(server.HandleLine(
      "{\"op\":\"fault_inject\",\"config\":\"store.rename=once\"}"));
  EXPECT_TRUE(result.Find("active")->bool_value());
  // Config-less form reports without reconfiguring.
  result = ParseOk(server.HandleLine("{\"op\":\"fault_inject\"}"));
  EXPECT_TRUE(result.Find("active")->bool_value());
  ASSERT_EQ(result.Find("sites")->array().size(), 1u);
  EXPECT_EQ(result.Find("sites")->array()[0].Find("site")->string_value(),
            "store.rename");
  // Empty config clears.
  result = ParseOk(
      server.HandleLine("{\"op\":\"fault_inject\",\"config\":\"\"}"));
  EXPECT_FALSE(result.Find("active")->bool_value());
  // Malformed configs are structured errors, and leave rules untouched.
  const JsonValue error = ParseError(server.HandleLine(
      "{\"op\":\"fault_inject\",\"config\":\"store.rename=sometimes\"}"));
  EXPECT_EQ(error.Find("code")->string_value(), "Invalid argument");
}

}  // namespace
}  // namespace cpclean
