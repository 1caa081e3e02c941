// The session lifecycle: save → evict → rehydrate. A session persisted
// mid-cleaning and rebuilt (same process or a fresh Server over the same
// data dir) must serve bit-identical q2/certify/predict answers and
// continue cleaning in exactly the order the uninterrupted session would
// have, including the zero-steps-cleaned and nothing-dirty edge cases.
// Also covers the LRU eviction sweep and the explicit save/load/drop ops.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/fault_injection.h"
#include "common/string_util.h"
#include "serve/op_registry.h"
#include "serve/server.h"
#include "serve/session_store.h"
#include "tests/serve/serve_test_util.h"

namespace cpclean {
namespace {

using serve_test::NumberArray;
using serve_test::ParseOk;

constexpr int kTrain = 30;
constexpr int kVal = 6;
constexpr int kK = 3;

std::string CreateRequest(const std::string& name, int seed,
                          double missing_rate = 0.25) {
  return StrFormat(
      "{\"op\":\"create_session\",\"session\":\"%s\",\"source\":"
      "\"synthetic\",\"dataset\":\"store\",\"train_rows\":%d,\"val_size\":%d,"
      "\"test_size\":6,\"seed\":%d,\"numeric\":4,\"categorical\":0,"
      "\"noise_sigma\":0.3,\"missing_rate\":%g,\"k\":%d}",
      name.c_str(), kTrain, kVal, seed, missing_rate, kK);
}

/// A fresh empty data dir under the test tmpdir.
std::string FreshDataDir(const std::string& leaf) {
  const std::string dir = ::testing::TempDir() + "/cpclean_" + leaf;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

Server MakeServer(const std::string& data_dir, size_t max_sessions = 0) {
  ServerOptions options;
  options.data_dir = data_dir;
  options.max_sessions = max_sessions;
  return Server(options);
}

/// Serialized q2 responses (probs + entropy + version, exact JSON bits)
/// for every validation index.
std::vector<std::string> Q2Sweep(Server* server, const std::string& name) {
  std::vector<std::string> out;
  for (int v = 0; v < kVal; ++v) {
    const JsonValue result = ParseOk(server->HandleLine(
        StrFormat("{\"op\":\"q2\",\"session\":\"%s\",\"val_indices\":[%d]}",
                  name.c_str(), v)));
    out.push_back(result.Find("results")->array()[0].Dump());
  }
  return out;
}

std::vector<int> CleanedIds(const JsonValue& result) {
  std::vector<int> out;
  for (const JsonValue& x : result.Find("cleaned")->array()) {
    out.push_back(static_cast<int>(x.number_value()));
  }
  return out;
}

TEST(SessionStoreTest, SaveRestartRehydrateBitIdentical) {
  const std::string dir = FreshDataDir("roundtrip");
  constexpr int kSeed = 41;

  // The never-persisted twin: same session, cleaned 2 steps, then run to
  // the end — the ground truth for both answers and cleaning order.
  Server twin = MakeServer("");
  ParseOk(twin.HandleLine(CreateRequest("s", kSeed)));
  ParseOk(twin.HandleLine("{\"op\":\"clean_step\",\"session\":\"s\","
                          "\"steps\":2}"));
  const std::vector<std::string> twin_mid = Q2Sweep(&twin, "s");
  const std::string twin_certify = ParseOk(
      twin.HandleLine("{\"op\":\"certify\",\"session\":\"s\","
                      "\"val_indices\":[0]}"))
                                       .Dump();
  const std::vector<int> twin_rest = CleanedIds(ParseOk(
      twin.HandleLine("{\"op\":\"clean_run\",\"session\":\"s\"}")));
  const std::vector<std::string> twin_final = Q2Sweep(&twin, "s");

  std::string snapshot_path;
  {
    // First server: clean 2 steps mid-way, save, and go away (scope end =
    // process restart as far as the data dir is concerned).
    Server first = MakeServer(dir);
    ParseOk(first.HandleLine(CreateRequest("s", kSeed)));
    ParseOk(first.HandleLine("{\"op\":\"clean_step\",\"session\":\"s\","
                             "\"steps\":2}"));
    const std::vector<std::string> first_mid = Q2Sweep(&first, "s");
    EXPECT_EQ(first_mid, twin_mid);
    const JsonValue saved = ParseOk(
        first.HandleLine("{\"op\":\"save_session\",\"session\":\"s\"}"));
    EXPECT_EQ(saved.Find("saved")->string_value(), "s");
    snapshot_path = saved.Find("path")->string_value();
    EXPECT_TRUE(std::filesystem::exists(snapshot_path));
  }

  // Second server over the same data dir: the very first request names
  // the session — lazy rehydration, no explicit load_session.
  Server second = MakeServer(dir);
  EXPECT_EQ(second.registry().size(), 0u);
  EXPECT_EQ(Q2Sweep(&second, "s"), twin_mid);
  EXPECT_EQ(ParseOk(second.HandleLine(
                        "{\"op\":\"certify\",\"session\":\"s\","
                        "\"val_indices\":[0]}"))
                .Dump(),
            twin_certify);
  const JsonValue stats = ParseOk(
      second.HandleLine("{\"op\":\"stats\",\"session\":\"s\"}"));
  EXPECT_EQ(static_cast<int>(stats.Find("num_cleaned")->number_value()), 2);
  // The resolved options rode along through the snapshot.
  const JsonValue* options = stats.Find("options");
  ASSERT_NE(options, nullptr);
  EXPECT_EQ(static_cast<int>(options->Find("k")->number_value()), kK);
  EXPECT_EQ(options->Find("kernel")->string_value(), "neg_euclidean");
  // The rest of the cleaning replays in exactly the twin's order.
  EXPECT_EQ(CleanedIds(ParseOk(second.HandleLine(
                "{\"op\":\"clean_run\",\"session\":\"s\"}"))),
            twin_rest);
  EXPECT_EQ(Q2Sweep(&second, "s"), twin_final);
}

TEST(SessionStoreTest, ZeroStepsAndNothingDirtyRoundTrip) {
  const std::string dir = FreshDataDir("edges");
  // (a) Saved before any cleaning: the snapshot carries an empty order.
  {
    Server server = MakeServer(dir);
    ParseOk(server.HandleLine(CreateRequest("virgin", 43)));
    const std::vector<std::string> before = Q2Sweep(&server, "virgin");
    ParseOk(server.HandleLine(
        "{\"op\":\"save_session\",\"session\":\"virgin\"}"));
    Server reloaded = MakeServer(dir);
    EXPECT_EQ(Q2Sweep(&reloaded, "virgin"), before);
    const JsonValue stats = ParseOk(reloaded.HandleLine(
        "{\"op\":\"stats\",\"session\":\"virgin\"}"));
    EXPECT_EQ(static_cast<int>(stats.Find("num_cleaned")->number_value()),
              0);
  }
  // (b) A task with no dirty rows at all (missing_rate 0): every candidate
  // set is a singleton; cleaning is a no-op before and after rehydration.
  {
    Server server = MakeServer(dir);
    ParseOk(server.HandleLine(
        CreateRequest("pristine", 44, /*missing_rate=*/0.0)));
    const std::vector<std::string> before = Q2Sweep(&server, "pristine");
    EXPECT_TRUE(CleanedIds(ParseOk(server.HandleLine(
                               "{\"op\":\"clean_step\",\"session\":"
                               "\"pristine\"}")))
                    .empty());
    ParseOk(server.HandleLine(
        "{\"op\":\"save_session\",\"session\":\"pristine\"}"));
    Server reloaded = MakeServer(dir);
    EXPECT_TRUE(CleanedIds(ParseOk(reloaded.HandleLine(
                               "{\"op\":\"clean_step\",\"session\":"
                               "\"pristine\"}")))
                    .empty());
    EXPECT_EQ(Q2Sweep(&reloaded, "pristine"), before);
  }
}

TEST(SessionStoreTest, EvictionIsLruAndRehydrationIsLazy) {
  const std::string dir = FreshDataDir("eviction");
  Server server = MakeServer(dir, /*max_sessions=*/2);
  ParseOk(server.HandleLine(CreateRequest("e1", 51)));
  ParseOk(server.HandleLine(CreateRequest("e2", 52)));
  const std::vector<std::string> e2_before = Q2Sweep(&server, "e2");
  Q2Sweep(&server, "e1");  // e1 is now more recently used than e2

  // Creating e3 pushes past max_sessions: e2 (LRU) is saved + dropped.
  ParseOk(server.HandleLine(CreateRequest("e3", 53)));
  EXPECT_EQ(server.registry().size(), 2u);
  const JsonValue listed = ParseOk(
      server.HandleLine("{\"op\":\"list_sessions\"}"));
  ASSERT_EQ(listed.Find("sessions")->array().size(), 2u);
  EXPECT_EQ(listed.Find("sessions")->array()[0].string_value(), "e1");
  EXPECT_EQ(listed.Find("sessions")->array()[1].string_value(), "e3");
  // The evicted session still owns its name and shows up as such.
  ASSERT_NE(listed.Find("evicted"), nullptr);
  ASSERT_EQ(listed.Find("evicted")->array().size(), 1u);
  EXPECT_EQ(listed.Find("evicted")->array()[0].string_value(), "e2");
  const JsonValue global = ParseOk(server.HandleLine("{\"op\":\"stats\"}"));
  ASSERT_NE(global.Find("saved"), nullptr);
  ASSERT_EQ(global.Find("saved")->array().size(), 1u);
  EXPECT_EQ(global.Find("saved")->array()[0].string_value(), "e2");

  // Monitoring an evicted session answers a stub — it must neither
  // rehydrate nor stamp the session recently-used.
  const JsonValue evicted_stats = ParseOk(
      server.HandleLine("{\"op\":\"stats\",\"session\":\"e2\"}"));
  EXPECT_EQ(evicted_stats.Find("state")->string_value(), "evicted");
  EXPECT_EQ(server.registry().size(), 2u);

  // Touching e2 rehydrates it bit-identically and (capacity again) evicts
  // e1, now the least recently used.
  EXPECT_EQ(Q2Sweep(&server, "e2"), e2_before);
  const JsonValue relisted = ParseOk(
      server.HandleLine("{\"op\":\"list_sessions\"}"));
  ASSERT_EQ(relisted.Find("sessions")->array().size(), 2u);
  EXPECT_EQ(relisted.Find("sessions")->array()[0].string_value(), "e2");
  EXPECT_EQ(relisted.Find("sessions")->array()[1].string_value(), "e3");
}

TEST(SessionStoreTest, ExplicitOpsAndErrorPaths) {
  const std::string dir = FreshDataDir("ops");
  // No data dir: persistence ops fail loudly with Unavailable.
  {
    Server server = MakeServer("");
    ParseOk(server.HandleLine(CreateRequest("a", 61)));
    const std::string response = server.HandleLine(
        "{\"op\":\"save_session\",\"session\":\"a\"}");
    EXPECT_NE(response.find("\"Unavailable\""), std::string::npos)
        << response;
  }
  Server server = MakeServer(dir);
  // load_session of a never-saved name.
  EXPECT_NE(server.HandleLine(
                    "{\"op\":\"load_session\",\"session\":\"ghost\"}")
                .find("\"Not found\""),
            std::string::npos);
  ParseOk(server.HandleLine(CreateRequest("a", 61)));
  ParseOk(server.HandleLine("{\"op\":\"save_session\",\"session\":\"a\"}"));
  // load_session while live.
  EXPECT_NE(server.HandleLine(
                    "{\"op\":\"load_session\",\"session\":\"a\"}")
                .find("\"Already exists\""),
            std::string::npos);
  // Recreating over a persisted name is refused too.
  EXPECT_NE(server.HandleLine(CreateRequest("a", 61))
                .find("\"Already exists\""),
            std::string::npos);
  // Dropping removes both the live session and its snapshot.
  const JsonValue dropped = ParseOk(
      server.HandleLine("{\"op\":\"drop_session\",\"session\":\"a\"}"));
  EXPECT_TRUE(dropped.Find("deleted_snapshot")->bool_value());
  EXPECT_NE(server.HandleLine(
                    "{\"op\":\"q2\",\"session\":\"a\",\"val_indices\":[0]}")
                .find("\"Not found\""),
            std::string::npos);
  // Explicit load_session after an eviction-style save.
  ParseOk(server.HandleLine(CreateRequest("b", 62)));
  const std::vector<std::string> b_before = Q2Sweep(&server, "b");
  ParseOk(server.HandleLine("{\"op\":\"save_session\",\"session\":\"b\"}"));
  ParseOk(server.HandleLine("{\"op\":\"drop_session\",\"session\":\"b\"}"));
  // drop_session deleted the snapshot, so save again via a fresh copy.
  ParseOk(server.HandleLine(CreateRequest("b", 62)));
  ParseOk(server.HandleLine("{\"op\":\"save_session\",\"session\":\"b\"}"));
  Server other = MakeServer(dir);
  const JsonValue loaded = ParseOk(other.HandleLine(
      "{\"op\":\"load_session\",\"session\":\"b\"}"));
  EXPECT_EQ(loaded.Find("name")->string_value(), "b");
  EXPECT_EQ(Q2Sweep(&other, "b"), b_before);
}

TEST(SessionStoreTest, TamperedTaskFingerprintFailsRehydration) {
  const std::string dir = FreshDataDir("tamper");
  {
    Server server = MakeServer(dir);
    ParseOk(server.HandleLine(CreateRequest("t", 91)));
    ParseOk(server.HandleLine("{\"op\":\"save_session\",\"session\":\"t\"}"));
  }
  // Corrupt the fingerprint: simulates the spec rebuilding *different*
  // validation/test/oracle data than the snapshot was saved against.
  const std::string path = dir + "/t.cpsession";
  std::ifstream in(path);
  std::stringstream buffer;
  buffer << in.rdbuf();
  in.close();
  std::string text = buffer.str();
  const size_t pos = text.find("fingerprint ");
  ASSERT_NE(pos, std::string::npos);
  text.replace(pos + 12, 16, "0000000000000000");
  std::ofstream out(path, std::ios::trunc);
  out << text;
  out.close();

  Server reloaded = MakeServer(dir);
  const std::string response = reloaded.HandleLine(
      "{\"op\":\"q2\",\"session\":\"t\",\"val_indices\":[0]}");
  EXPECT_NE(response.find("\"Internal error\""), std::string::npos)
      << response;
  EXPECT_NE(response.find("does not match the snapshot"), std::string::npos)
      << response;
}

TEST(SessionStoreTest, EvictedSessionRefusesLateWritesOnDetachedInstance) {
  // The eviction sweep retires its victim: a request handler that grabbed
  // the shared_ptr before the registry drop must NOT be able to apply a
  // write to the detached instance — such a write would be acknowledged
  // and then silently lost, because rehydration reads the snapshot.
  const std::string dir = FreshDataDir("retire");
  Server server = MakeServer(dir, /*max_sessions=*/1);
  ParseOk(server.HandleLine(CreateRequest("w1", 81)));
  const std::shared_ptr<ServeSession> detached =
      server.registry().Get("w1").value();
  // Creating w2 evicts w1 (the LRU) to disk.
  ParseOk(server.HandleLine(CreateRequest("w2", 82)));
  EXPECT_FALSE(server.registry().Get("w1").ok());

  // A late write through the detached pointer is refused, never applied.
  const Result<JsonValue> late = detached->CleanStep(1);
  ASSERT_FALSE(late.ok());
  EXPECT_EQ(late.status().code(), StatusCode::kUnavailable);
  EXPECT_NE(late.status().message().find("evicted"), std::string::npos);
  // Reads on the detached instance still answer (harmless, and version-
  // stamped like any read).
  EXPECT_TRUE(
      detached->Read(*FindOp("q2"), std::vector<double>(4, 0.0)).ok());

  // The retried write lands on the rehydrated incarnation and cleans the
  // exact tuple the refused write would have — nothing was lost or
  // double-applied.
  Server twin = MakeServer("");
  ParseOk(twin.HandleLine(CreateRequest("w1", 81)));
  const JsonValue twin_step = ParseOk(
      twin.HandleLine("{\"op\":\"clean_step\",\"session\":\"w1\"}"));
  const JsonValue retried = ParseOk(
      server.HandleLine("{\"op\":\"clean_step\",\"session\":\"w1\"}"));
  EXPECT_EQ(CleanedIds(retried), CleanedIds(twin_step));
}

TEST(SessionStoreTest, WriteMeetingTheRetiringEntryWaitsForTheEviction) {
  // A clean_step whose lookup meets the sweep's retiring entry waits for
  // the eviction to settle and lands on the rehydrated copy, instead of
  // reaching the retired instance and answering Unavailable. A stretched
  // snapshot rename holds w1 retiring (retired, its save committing); the
  // clean_step below is sent once that rename has begun and before the
  // evicting create returns, so it must meet the retiring entry.
  const std::string dir = FreshDataDir("retiring_write");
  Server server = MakeServer(dir, /*max_sessions=*/1);
  ParseOk(server.HandleLine(CreateRequest("w1", 91)));
  ASSERT_TRUE(FaultInjection::Configure("store.rename=sleep:600").ok());
  std::atomic<bool> create_returned{false};
  std::thread evictor([&server, &create_returned] {
    // Creating w2 evicts w1 (the LRU) through the stretched rename.
    ParseOk(server.HandleLine(CreateRequest("w2", 92)));
    create_returned = true;
  });
  const auto rename_hits = [] {
    for (const FaultInjection::SiteStats& site : FaultInjection::Stats()) {
      if (site.site == "store.rename") return site.hits;
    }
    return uint64_t{0};
  };
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (rename_hits() == 0 && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  const bool inside_rename = rename_hits() > 0 && !create_returned;
  const std::string response =
      server.HandleLine("{\"op\":\"clean_step\",\"session\":\"w1\"}");
  evictor.join();
  FaultInjection::Clear();
  ASSERT_TRUE(inside_rename)
      << "the clean_step was not sent while the eviction's rename slept";
  const JsonValue stepped = ParseOk(response);
  ASSERT_EQ(CleanedIds(stepped).size(), 1u) << response;

  // The step is in w1's durable state: a fresh server over the same data
  // dir cleans next what an uninterrupted twin cleans second.
  ParseOk(server.HandleLine("{\"op\":\"save_session\",\"session\":\"w1\"}"));
  Server twin = MakeServer("");
  ParseOk(twin.HandleLine(CreateRequest("w1", 91)));
  const std::vector<int> want =
      CleanedIds(ParseOk(twin.HandleLine(
          "{\"op\":\"clean_step\",\"session\":\"w1\",\"steps\":2}")));
  ASSERT_EQ(want.size(), 2u);
  EXPECT_EQ(CleanedIds(stepped).front(), want[0]);
  Server restarted = MakeServer(dir, /*max_sessions=*/1);
  EXPECT_EQ(CleanedIds(ParseOk(restarted.HandleLine(
                "{\"op\":\"clean_step\",\"session\":\"w1\"}"))),
            std::vector<int>{want[1]});
}

TEST(SessionStoreTest, WriteDuringEvictionSnapshotTriggersDirtyResave) {
  // Deterministic replay of the sweep's interleaving: save prepared, then
  // a write lands (acknowledged), then the sweep retires. The dirty flag
  // (write_seq advanced past the save's) must force a re-save — the
  // sweep's Retire + Save handshake — that contains the write.
  const std::string dir = FreshDataDir("dirty_resave");
  SessionStoreOptions store_options;
  store_options.data_dir = dir;
  SessionStore store(store_options);
  const JsonValue spec =
      ParseJson(StrFormat(
                    "{\"session\":\"d\",\"source\":\"synthetic\",\"dataset\":"
                    "\"store\",\"train_rows\":%d,\"val_size\":%d,"
                    "\"test_size\":6,\"seed\":83,\"numeric\":4,"
                    "\"categorical\":0,\"noise_sigma\":0.3,"
                    "\"missing_rate\":0.25,\"k\":%d}",
                    kTrain, kVal, kK))
          .value();
  const ServeSessionOptions options =
      ServeSessionOptionsFromRequest(spec, 1024).value();
  CleaningTask task = BuildTaskFromSpec(spec).value();
  const std::shared_ptr<ServeSession> session =
      ServeSession::Make("d", std::move(task), options, spec).value();

  // Sweep phase 1: serialize + write the snapshot, note the write seq.
  uint64_t snapshot_write_seq = 0;
  ASSERT_TRUE(store.Save(*session, &snapshot_write_seq).ok());
  // The racing write: acknowledged to its client.
  const JsonValue stepped = session->CleanStep(2).value();
  const size_t steps_applied = stepped.Find("cleaned")->array().size();
  ASSERT_GT(steps_applied, 0u);
  EXPECT_GT(session->write_seq(), snapshot_write_seq);

  // Sweep phase 2: retire. The dirty flag must demand a re-save...
  ASSERT_TRUE(session->Retire(snapshot_write_seq));
  uint64_t resave_write_seq = 0;
  ASSERT_TRUE(store.Save(*session, &resave_write_seq).ok());
  EXPECT_EQ(resave_write_seq, session->write_seq());
  // ...and the re-save carries the acknowledged write.
  const std::shared_ptr<ServeSession> rehydrated = store.Load("d").value();
  const JsonValue stats = rehydrated->Stats();
  EXPECT_EQ(static_cast<size_t>(stats.Find("num_cleaned")->number_value()),
            steps_applied);

  // A clean (no write since serialization) retire needs no re-save.
  uint64_t clean_seq = 0;
  ASSERT_TRUE(store.Save(*rehydrated, &clean_seq).ok());
  EXPECT_FALSE(rehydrated->Retire(clean_seq));
  // Retired instances refuse writes; Unretire (the sweep's rollback when
  // the re-save fails) restores them.
  EXPECT_EQ(rehydrated->CleanStep(1).status().code(),
            StatusCode::kUnavailable);
  rehydrated->Unretire();
  EXPECT_TRUE(rehydrated->CleanStep(1).ok());
}

TEST(SessionStoreTest, MaxSessionsWithoutDataDirRefusesCreation) {
  ServerOptions options;
  options.max_sessions = 1;
  Server server(options);
  ParseOk(server.HandleLine(CreateRequest("only", 71)));
  const std::string response = server.HandleLine(CreateRequest("more", 72));
  EXPECT_NE(response.find("\"Unavailable\""), std::string::npos)
      << response;
  EXPECT_EQ(server.registry().size(), 1u);
}

}  // namespace
}  // namespace cpclean
