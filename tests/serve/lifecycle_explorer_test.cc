// Seeded schedule explorer for the session lifecycle (create, clean_step,
// save, evict, drop, load over two sessions under --max-sessions=1).
//
// Each seed picks, per worker thread, a random op sequence over sessions
// "a" and "b", and picks which lifecycle scheduling points sleep (the
// sleep-only fault sites lifecycle.load / lifecycle.save /
// lifecycle.evict, plus the snapshot rename and the log fsync). The
// sleeps stretch the windows between a transition's expensive half and
// its commit, so concurrent ops land inside them. After every schedule
// the explorer checks three properties, first on the same server and
// then on a fresh Server over the same data dir:
//
//   1. no acknowledged clean_step is lost: a session's final version is
//      at least the version every acknowledged clean_step reported, and
//      a restart serves the exact same bits;
//   2. no session whose drop was acknowledged comes back: every request
//      naming it that starts after the acknowledgement answers Not
//      found, and neither the live table nor the data dir knows it;
//   3. no snapshot is torn: every snapshot left in the data dir loads.
//
// A create is never issued for a name once its drop has been issued, so
// any later sign of a dropped name is a resurrection, not a new session.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <filesystem>
#include <map>
#include <memory>
#include <mutex>
#include <random>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/fault_injection.h"
#include "common/string_util.h"
#include "serve/json.h"
#include "serve/server.h"

namespace cpclean {
namespace {

constexpr int kSessions = 2;
constexpr int kThreads = 3;
constexpr int kOpsPerThread = 8;
constexpr int kShards = 4;
constexpr int kSeedsPerShard = 20;
const char* const kNames[kSessions] = {"a", "b"};

enum class Op { kCreate, kCleanStep, kSave, kEvict, kDrop, kLoad };

const char* OpName(Op op) {
  switch (op) {
    case Op::kCreate: return "create";
    case Op::kCleanStep: return "clean_step";
    case Op::kSave: return "save";
    case Op::kEvict: return "evict";
    case Op::kDrop: return "drop";
    case Op::kLoad: return "load";
  }
  return "?";
}

std::string CreateRequest(int s) {
  return StrFormat(
      "{\"op\":\"create_session\",\"session\":\"%s\",\"source\":"
      "\"synthetic\",\"dataset\":\"explore\",\"train_rows\":30,"
      "\"val_size\":4,\"test_size\":4,\"seed\":%d,\"numeric\":4,"
      "\"categorical\":0,\"noise_sigma\":0.3,\"missing_rate\":0.3,\"k\":3}",
      kNames[s], 301 + s);
}

std::string Q2Request(int s) {
  return StrFormat("{\"op\":\"q2\",\"session\":\"%s\",\"val_indices\":[0]}",
                   kNames[s]);
}

/// One finished request, stamped with a logical clock at issue and at
/// acknowledgement so the checks can order requests in real time.
struct Record {
  int session = 0;
  Op op = Op::kCreate;
  uint64_t start = 0;
  uint64_t end = 0;
  bool ok = false;
  std::string code;  // error code when !ok
  JsonValue result;
};

/// Parsed response: ok + result, or the error code and message.
struct Reply {
  bool ok = false;
  std::string code;
  std::string message;
  JsonValue result;
};

Reply Send(Server* server, const std::string& line) {
  Reply reply;
  Result<JsonValue> parsed = ParseJson(server->HandleLine(line));
  if (!parsed.ok()) {
    reply.code = "unparseable response";
    return reply;
  }
  const JsonValue& response = parsed.value();
  const JsonValue* ok = response.Find("ok");
  reply.ok = ok != nullptr && ok->bool_value();
  if (reply.ok) {
    reply.result = *response.Find("result");
  } else if (const JsonValue* error = response.Find("error")) {
    reply.code = error->Find("code")->string_value();
    reply.message = error->Find("message")->string_value();
  }
  return reply;
}

/// The dataset version a single-point q2 answer was computed at.
uint64_t Q2Version(const JsonValue& result) {
  return static_cast<uint64_t>(
      result.Find("results")->array()[0].Find("version")->number_value());
}

std::string FreshDataDir(const std::string& leaf) {
  const std::string dir = ::testing::TempDir() + "/cpclean_" + leaf;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

/// Session names with a base snapshot in `dir`.
std::set<std::string> SnapshotNames(const std::string& dir) {
  std::set<std::string> names;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    const std::string file = entry.path().filename().string();
    const std::string suffix = ".cpsession";
    if (file.size() > suffix.size() &&
        file.compare(file.size() - suffix.size(), suffix.size(), suffix) ==
            0) {
      names.insert(file.substr(0, file.size() - suffix.size()));
    }
  }
  return names;
}

ServerOptions ExplorerOptions(const std::string& dir) {
  ServerOptions options;
  options.data_dir = dir;
  options.max_sessions = 1;
  return options;
}

/// Keeps a drop final: once a name's drop is issued, no create for that
/// name is issued or still in flight.
struct NameGuard {
  std::mutex mu;
  int creates_in_flight = 0;
  bool drop_issued = false;
};

class LifecycleExplorer {
 public:
  LifecycleExplorer(uint64_t seed, std::string dir)
      : seed_(seed), dir_(std::move(dir)) {}

  void Run() {
    std::mt19937_64 rng(seed_);
    // Which scheduling points sleep, and for how long, this schedule.
    std::string config = StrFormat("seed=%llu",
                                   static_cast<unsigned long long>(seed_));
    for (const char* site : {"lifecycle.load", "lifecycle.save",
                             "lifecycle.evict", "store.rename",
                             "log.fsync"}) {
      if (rng() % 2 == 0) {
        config += StrFormat(";%s=sleep:%d", site,
                            1 + static_cast<int>(rng() % 4));
      }
    }
    SCOPED_TRACE("faults: " + config);

    std::vector<bool> created(kSessions, false);
    {
      Server server(ExplorerOptions(dir_));
      // Some schedules start with both names created (so "a" starts out
      // evicted), others leave the creates to race inside the schedule.
      for (int s = 0; s < kSessions; ++s) {
        if (rng() % 2 == 0) {
          const Reply reply = Send(&server, CreateRequest(s));
          ASSERT_TRUE(reply.ok) << reply.message;
          created[static_cast<size_t>(s)] = true;
        }
      }
      ASSERT_TRUE(FaultInjection::Configure(config).ok());
      std::vector<std::thread> threads;
      for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([this, &server, t] { Worker(&server, t); });
      }
      for (std::thread& thread : threads) thread.join();
      FaultInjection::Clear();

      for (const Record& r : records_) {
        if (r.op == Op::kCreate && r.ok) {
          created[static_cast<size_t>(r.session)] = true;
        }
      }
      CheckSchedule(&server, created);
    }
    // A fresh process over the same data dir.
    Server restarted(ExplorerOptions(dir_));
    CheckRestart(&restarted);
  }

 private:
  Op PickOp(std::mt19937_64* rng, int s) {
    // Weights: create 2, clean_step 3, save 2, evict 2, drop 1, load 2.
    static const Op kTable[] = {Op::kCreate, Op::kCreate,    Op::kCleanStep,
                                Op::kCleanStep, Op::kCleanStep, Op::kSave,
                                Op::kSave,   Op::kEvict,     Op::kEvict,
                                Op::kDrop,   Op::kLoad,      Op::kLoad};
    Op op = kTable[(*rng)() % (sizeof(kTable) / sizeof(kTable[0]))];
    NameGuard& guard = guards_[s];
    std::lock_guard<std::mutex> lock(guard.mu);
    if (op == Op::kCreate) {
      if (guard.drop_issued) return Op::kCleanStep;
      ++guard.creates_in_flight;
    } else if (op == Op::kDrop) {
      if (guard.drop_issued || guard.creates_in_flight > 0) {
        return Op::kCleanStep;
      }
      guard.drop_issued = true;
    }
    return op;
  }

  void Worker(Server* server, int t) {
    std::mt19937_64 rng(seed_ * 7919 + static_cast<uint64_t>(t) + 1);
    for (int i = 0; i < kOpsPerThread; ++i) {
      int s = static_cast<int>(rng() % kSessions);
      const Op op = PickOp(&rng, s);
      std::string line;
      switch (op) {
        case Op::kCreate: line = CreateRequest(s); break;
        case Op::kCleanStep:
          line = StrFormat("{\"op\":\"clean_step\",\"session\":\"%s\"}",
                           kNames[s]);
          break;
        case Op::kSave:
          line = StrFormat("{\"op\":\"save_session\",\"session\":\"%s\"}",
                           kNames[s]);
          break;
        case Op::kEvict:
          // With --max-sessions=1, touching the other name evicts this
          // one (rehydrating the other when it is itself evicted).
          s = 1 - s;
          line = Q2Request(s);
          break;
        case Op::kDrop:
          line = StrFormat("{\"op\":\"drop_session\",\"session\":\"%s\"}",
                           kNames[s]);
          break;
        case Op::kLoad:
          line = StrFormat("{\"op\":\"load_session\",\"session\":\"%s\"}",
                           kNames[s]);
          break;
      }
      Record record;
      record.session = s;
      record.op = op;
      record.start = clock_.fetch_add(1) + 1;
      const Reply reply = Send(server, line);
      record.end = clock_.fetch_add(1) + 1;
      if (op == Op::kCreate) {
        std::lock_guard<std::mutex> lock(guards_[s].mu);
        --guards_[s].creates_in_flight;
      }
      record.ok = reply.ok;
      record.code = reply.code;
      record.result = reply.result;
      // Expected refusals: a missing or already-present name, and a write
      // that met an instance the eviction sweep had retired.
      const bool expected =
          reply.ok || reply.code == "Not found" ||
          reply.code == "Already exists" ||
          (op == Op::kCleanStep && reply.code == "Unavailable");
      std::lock_guard<std::mutex> lock(mu_);
      if (!expected) {
        failures_.push_back(StrFormat("%s %s: %s: %s", OpName(op), kNames[s],
                                      reply.code.c_str(),
                                      reply.message.c_str()));
      }
      records_.push_back(std::move(record));
    }
  }

  void CheckSchedule(Server* server, const std::vector<bool>& created) {
    for (const std::string& failure : failures_) {
      ADD_FAILURE() << "unexpected error: " << failure;
    }
    for (int s = 0; s < kSessions; ++s) {
      const char* name = kNames[s];
      const Record* drop = nullptr;
      uint64_t max_acked_version = 0;
      for (const Record& r : records_) {
        if (r.session != s || !r.ok) continue;
        if (r.op == Op::kDrop) drop = &r;
        if (r.op == Op::kCleanStep) {
          max_acked_version = std::max(
              max_acked_version,
              static_cast<uint64_t>(r.result.Find("version")->number_value()));
        }
      }
      if (drop != nullptr) {
        // Property 2, online: nothing issued after the drop's
        // acknowledgement may find the session.
        for (const Record& r : records_) {
          if (r.session == s && r.start > drop->end && r.ok) {
            ADD_FAILURE() << name << ": " << OpName(r.op)
                          << " issued after the acknowledged drop succeeded";
          }
        }
        dropped_.insert(name);
        const Reply q2 = Send(server, Q2Request(s));
        EXPECT_EQ(q2.code, "Not found")
            << name << " came back after its acknowledged drop";
        continue;
      }
      if (!created[static_cast<size_t>(s)]) continue;
      // Property 1: the final state carries every acknowledged write.
      const Reply q2 = Send(server, Q2Request(s));
      ASSERT_TRUE(q2.ok) << name << ": " << q2.code << ": " << q2.message;
      EXPECT_GE(Q2Version(q2.result), max_acked_version)
          << name << " lost an acknowledged clean_step";
      const Reply saved = Send(
          server,
          StrFormat("{\"op\":\"save_session\",\"session\":\"%s\"}", name));
      ASSERT_TRUE(saved.ok) << name << ": " << saved.message;
      final_bits_[name] = q2.result.Dump();
    }
    const Reply listed = Send(server, "{\"op\":\"list_sessions\"}");
    ASSERT_TRUE(listed.ok);
    for (const char* key : {"sessions", "evicted"}) {
      for (const JsonValue& n : listed.result.Find(key)->array()) {
        EXPECT_EQ(dropped_.count(n.string_value()), 0u)
            << n.string_value() << " is listed as " << key
            << " after its acknowledged drop";
      }
    }
  }

  void CheckRestart(Server* server) {
    // Property 3: every snapshot left on disk loads (none is torn), and
    // exactly the surviving sessions have one.
    std::set<std::string> expected;
    for (const auto& entry : final_bits_) expected.insert(entry.first);
    EXPECT_EQ(SnapshotNames(dir_), expected);
    for (int s = 0; s < kSessions; ++s) {
      const char* name = kNames[s];
      const Reply q2 = Send(server, Q2Request(s));
      const auto it = final_bits_.find(name);
      if (it == final_bits_.end()) {
        EXPECT_EQ(q2.code, "Not found") << name << " exists after restart";
        continue;
      }
      ASSERT_TRUE(q2.ok) << name << " did not rehydrate: " << q2.code << ": "
                         << q2.message;
      // Properties 1 and 2 across the restart: the same bits, same version.
      EXPECT_EQ(q2.result.Dump(), it->second) << name;
    }
  }

  const uint64_t seed_;
  const std::string dir_;
  NameGuard guards_[kSessions];
  std::atomic<uint64_t> clock_{0};
  std::mutex mu_;
  std::vector<Record> records_;
  std::vector<std::string> failures_;
  std::set<std::string> dropped_;
  std::map<std::string, std::string> final_bits_;
};

class LifecycleExplorerTest : public ::testing::TestWithParam<int> {
 protected:
  void SetUp() override { FaultInjection::Clear(); }
  void TearDown() override { FaultInjection::Clear(); }
};

TEST_P(LifecycleExplorerTest, SchedulesKeepWritesDropsAndSnapshots) {
  for (int i = 0; i < kSeedsPerShard; ++i) {
    const uint64_t seed =
        static_cast<uint64_t>(GetParam() * kSeedsPerShard + i) + 1;
    SCOPED_TRACE(StrFormat("seed %llu", static_cast<unsigned long long>(seed)));
    LifecycleExplorer explorer(
        seed, FreshDataDir(StrFormat("explore_%d", GetParam())));
    explorer.Run();
    if (HasFatalFailure()) return;
  }
}

INSTANTIATE_TEST_SUITE_P(Shards, LifecycleExplorerTest,
                         ::testing::Range(0, kShards));

}  // namespace
}  // namespace cpclean
