// The append-only cleaning log: checksummed fix-record round-trips,
// torn-tail recovery, corruption detection (including a checksummed line
// that is not a fix record), replay equivalence against direct mutation,
// and the injected log.append / log.fsync / log.replay faults.

#include "incomplete/cleaning_log.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "common/checksum.h"
#include "common/fault_injection.h"
#include "common/string_util.h"
#include "tests/test_util.h"

namespace cpclean {
namespace {

using testing_util::MakeRandomDataset;
using testing_util::RandomDatasetSpec;

std::string FreshLogPath(const std::string& leaf) {
  const std::string path =
      ::testing::TempDir() + "/cpclean_" + leaf + ".cplog";
  std::filesystem::remove(path);
  return path;
}

size_t FileSize(const std::string& path) {
  std::error_code ec;
  const auto size = std::filesystem::file_size(path, ec);
  return ec ? 0 : static_cast<size_t>(size);
}

std::string ReadAll(const std::string& path) {
  std::ifstream file(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(file),
                     std::istreambuf_iterator<char>());
}

MutationRecord Fix(uint64_t seq, int example, int candidate) {
  return MutationRecord{seq, example, candidate};
}

bool RecordsEqual(const MutationRecord& a, const MutationRecord& b) {
  return a.seq == b.seq && a.example == b.example &&
         a.candidate == b.candidate;
}

/// A log line carrying `body` under a valid checksum.
std::string Checksummed(const std::string& body) {
  return body + StrFormat(" #%016llx",
                          static_cast<unsigned long long>(Fnv1a64(body)));
}

class CleaningLogTest : public ::testing::Test {
 protected:
  void TearDown() override { FaultInjection::Clear(); }
};

TEST_F(CleaningLogTest, EncodeDecodeRoundTripsEveryKind) {
  // A fix is the one record kind; cover the field extremes.
  for (const MutationRecord& record :
       {Fix(7, 3, 1), Fix(1, 0, 0), Fix(UINT64_MAX, 2147483647, 2147483647)}) {
    const std::string line = EncodeLogRecord(record);
    const Result<MutationRecord> decoded = DecodeLogRecord(line);
    ASSERT_TRUE(decoded.ok()) << line;
    EXPECT_TRUE(RecordsEqual(record, decoded.value())) << line;
  }
  // Any other record kind is an error, even under a valid checksum.
  EXPECT_FALSE(DecodeLogRecord(Checksummed("add 9 1 1 2 0x1p+0 0x1p+1")).ok());
  EXPECT_FALSE(
      DecodeLogRecord(Checksummed("replace 8 2 1 2 0x1p+0 0x1p+1")).ok());
}

TEST_F(CleaningLogTest, DecodeRejectsCorruption) {
  const std::string line = EncodeLogRecord(Fix(5, 2, 0));
  // Body flip: checksum mismatch.
  std::string body_flip = line;
  body_flip[0] = 'g';
  EXPECT_FALSE(DecodeLogRecord(body_flip).ok());
  // Checksum flip.
  std::string sum_flip = line;
  sum_flip.back() = sum_flip.back() == '0' ? '1' : '0';
  EXPECT_FALSE(DecodeLogRecord(sum_flip).ok());
  // Truncation (a torn line).
  EXPECT_FALSE(DecodeLogRecord(line.substr(0, line.size() - 3)).ok());
  EXPECT_FALSE(DecodeLogRecord("").ok());
}

TEST_F(CleaningLogTest, AppendScanRoundTrip) {
  const std::string path = FreshLogPath("roundtrip");
  const std::vector<MutationRecord> records = {Fix(1, 0, 1), Fix(2, 3, 0),
                                               Fix(3, 1, 2)};
  // Two appends: the second must extend, not rewrite.
  ASSERT_TRUE(AppendCleaningLog(path, {EncodeLogRecord(records[0])}).ok());
  ASSERT_TRUE(AppendCleaningLog(path, {EncodeLogRecord(records[1]),
                                       EncodeLogRecord(records[2])})
                  .ok());
  const Result<LogScan> scan = ScanCleaningLog(path);
  ASSERT_TRUE(scan.ok());
  EXPECT_FALSE(scan.value().truncated_tail);
  EXPECT_EQ(scan.value().last_seq, 3u);
  EXPECT_EQ(scan.value().durable_bytes, FileSize(path));
  ASSERT_EQ(scan.value().records.size(), 3u);
  for (size_t i = 0; i < records.size(); ++i) {
    EXPECT_TRUE(RecordsEqual(records[i], scan.value().records[i]));
  }
}

TEST_F(CleaningLogTest, MissingFileScansEmpty) {
  const Result<LogScan> scan = ScanCleaningLog(FreshLogPath("missing"));
  ASSERT_TRUE(scan.ok());
  EXPECT_TRUE(scan.value().records.empty());
  EXPECT_EQ(scan.value().durable_bytes, 0u);
}

TEST_F(CleaningLogTest, TornTailDroppedAndTruncatedForAppend) {
  const std::string path = FreshLogPath("torn");
  ASSERT_TRUE(AppendCleaningLog(path, {EncodeLogRecord(Fix(1, 0, 1)),
                                       EncodeLogRecord(Fix(2, 1, 0))})
                  .ok());
  const size_t durable = FileSize(path);
  {
    // A killed append leaves half a line with no newline.
    std::ofstream file(path, std::ios::app | std::ios::binary);
    file << EncodeLogRecord(Fix(3, 2, 0)).substr(0, 10);
  }
  const Result<LogScan> scan = ScanCleaningLog(path);
  ASSERT_TRUE(scan.ok());
  EXPECT_TRUE(scan.value().truncated_tail);
  EXPECT_EQ(scan.value().records.size(), 2u);
  EXPECT_EQ(scan.value().durable_bytes, durable);
  // ScanCleaningLog never modifies the file; ForAppend truncates the torn
  // tail so the next append lands on a record boundary.
  EXPECT_GT(FileSize(path), durable);
  ASSERT_TRUE(ScanCleaningLogForAppend(path).ok());
  EXPECT_EQ(FileSize(path), durable);
  ASSERT_TRUE(AppendCleaningLog(path, {EncodeLogRecord(Fix(3, 2, 0))}).ok());
  const Result<LogScan> healed = ScanCleaningLog(path);
  ASSERT_TRUE(healed.ok());
  EXPECT_FALSE(healed.value().truncated_tail);
  EXPECT_EQ(healed.value().records.size(), 3u);
}

TEST_F(CleaningLogTest, ChecksummedTailThatDoesNotParseIsCorruption) {
  const std::string path = FreshLogPath("checksummed_tail");
  ASSERT_TRUE(AppendCleaningLog(path, {EncodeLogRecord(Fix(1, 0, 1)),
                                       EncodeLogRecord(Fix(2, 1, 0))})
                  .ok());
  const std::string durable = ReadAll(path);
  // A whole, newline-terminated line with a valid checksum was written
  // whole: a torn append cannot leave one. An `add` record there is
  // corruption, and the scan must neither drop it nor cut the file.
  {
    std::ofstream file(path, std::ios::app | std::ios::binary);
    file << Checksummed("add 3 1 1 2 0x1p+0 0x1p+1") << '\n';
  }
  const size_t with_add = FileSize(path);
  const Result<LogScan> scan = ScanCleaningLog(path);
  ASSERT_FALSE(scan.ok());
  EXPECT_EQ(scan.status().code(), StatusCode::kIoError);
  const Result<LogScan> for_append = ScanCleaningLogForAppend(path);
  ASSERT_FALSE(for_append.ok());
  EXPECT_EQ(for_append.status().code(), StatusCode::kIoError);
  EXPECT_EQ(FileSize(path), with_add);

  // A tail with no newline, or one whose checksum fails, is still torn:
  // dropped, and cut off for the next append.
  const std::string fix3 = EncodeLogRecord(Fix(3, 2, 0));
  std::string bad_sum = fix3;
  bad_sum.back() = bad_sum.back() == '0' ? '1' : '0';
  for (const std::string& tail : {fix3, bad_sum + "\n"}) {
    {
      std::ofstream file(path, std::ios::trunc | std::ios::binary);
      file << durable << tail;
    }
    const Result<LogScan> torn = ScanCleaningLogForAppend(path);
    ASSERT_TRUE(torn.ok()) << tail;
    EXPECT_TRUE(torn.value().truncated_tail) << tail;
    EXPECT_EQ(torn.value().records.size(), 2u) << tail;
    EXPECT_EQ(ReadAll(path), durable) << tail;
  }
}

TEST_F(CleaningLogTest, MidFileCorruptionIsAnError) {
  const std::string path = FreshLogPath("midfile");
  ASSERT_TRUE(AppendCleaningLog(path, {EncodeLogRecord(Fix(1, 0, 1)),
                                       EncodeLogRecord(Fix(2, 1, 0))})
                  .ok());
  std::string bytes = ReadAll(path);
  // Flip one byte of the FIRST record's body: damage before the tail is
  // corruption, never silently dropped.
  const size_t pos = bytes.find("fix 1");
  ASSERT_NE(pos, std::string::npos);
  bytes[pos] = 'g';
  {
    std::ofstream file(path, std::ios::trunc | std::ios::binary);
    file << bytes;
  }
  EXPECT_FALSE(ScanCleaningLog(path).ok());
}

TEST_F(CleaningLogTest, NonIncreasingSequenceIsAnError) {
  const std::string path = FreshLogPath("seq");
  ASSERT_TRUE(AppendCleaningLog(path, {EncodeLogRecord(Fix(2, 0, 1)),
                                       EncodeLogRecord(Fix(2, 1, 0))})
                  .ok());
  EXPECT_FALSE(ScanCleaningLog(path).ok());
}

TEST_F(CleaningLogTest, ReplayMatchesDirectMutation) {
  RandomDatasetSpec spec;
  spec.num_examples = 8;
  spec.max_candidates = 4;
  spec.num_labels = 2;
  spec.dim = 3;
  spec.seed = 21;
  IncompleteDataset live = MakeRandomDataset(spec);
  const IncompleteDataset base = live;  // value snapshot at version v0
  const uint64_t v0 = base.version();

  // Fix the last candidate of every multi-candidate example that has one,
  // so the replayed fixes move rows within the slab.
  std::vector<int> want_fixed;
  for (int i = 0; i < live.num_examples(); ++i) {
    if (live.num_candidates(i) < 2) continue;
    live.FixExample(i, live.num_candidates(i) - 1);
    want_fixed.push_back(i);
  }
  ASSERT_GE(want_fixed.size(), 2u);

  // Round-trip the journal through the on-disk format.
  const std::string path = FreshLogPath("replay");
  std::vector<std::string> lines;
  for (const MutationRecord& record : live.JournalSince(v0)) {
    lines.push_back(EncodeLogRecord(record));
  }
  ASSERT_TRUE(AppendCleaningLog(path, lines).ok());
  const Result<LogScan> scan = ScanCleaningLog(path);
  ASSERT_TRUE(scan.ok());
  ASSERT_EQ(scan.value().records.size(), want_fixed.size());

  IncompleteDataset replayed = base;
  std::vector<int> fixed;
  ASSERT_TRUE(
      ReplayCleaningLog(scan.value().records, v0, &replayed, &fixed).ok());
  EXPECT_TRUE(BitIdentical(live, replayed));
  EXPECT_EQ(replayed.version(), live.version());
  EXPECT_EQ(fixed, want_fixed);
}

TEST_F(CleaningLogTest, ReplayFromSeqSkipsAlreadyApplied) {
  RandomDatasetSpec spec;
  spec.num_examples = 6;
  spec.seed = 33;
  IncompleteDataset live = MakeRandomDataset(spec);
  const uint64_t v0 = live.version();
  live.FixExample(0, 0);
  const IncompleteDataset mid = live;  // already holds the first fix
  live.FixExample(2, 0);

  const std::vector<MutationRecord> all = live.JournalSince(v0);
  ASSERT_EQ(all.size(), 2u);
  IncompleteDataset replayed = mid;
  // from_seq = mid's version: the first record is skipped, not re-applied.
  ASSERT_TRUE(
      ReplayCleaningLog(all, mid.version(), &replayed, nullptr).ok());
  EXPECT_TRUE(BitIdentical(live, replayed));
}

TEST_F(CleaningLogTest, ReplaySequenceGapIsAnError) {
  RandomDatasetSpec spec;
  spec.num_examples = 6;
  spec.seed = 34;
  IncompleteDataset live = MakeRandomDataset(spec);
  IncompleteDataset base = live;
  const uint64_t v0 = live.version();
  live.FixExample(0, 0);
  live.FixExample(2, 0);
  std::vector<MutationRecord> gapped = live.JournalSince(v0);
  gapped.erase(gapped.begin());  // drop the first mutation
  EXPECT_FALSE(ReplayCleaningLog(gapped, v0, &base, nullptr).ok());
}

TEST_F(CleaningLogTest, InjectedAppendFaultLeavesFileUntouched) {
  const std::string path = FreshLogPath("fault_append");
  ASSERT_TRUE(AppendCleaningLog(path, {EncodeLogRecord(Fix(1, 0, 1))}).ok());
  const std::string before = ReadAll(path);
  ASSERT_TRUE(FaultInjection::Configure("log.append=once").ok());
  EXPECT_FALSE(AppendCleaningLog(path, {EncodeLogRecord(Fix(2, 1, 0))}).ok());
  EXPECT_EQ(ReadAll(path), before);
  // The rule was "once": the retry goes through.
  EXPECT_TRUE(AppendCleaningLog(path, {EncodeLogRecord(Fix(2, 1, 0))}).ok());
}

TEST_F(CleaningLogTest, InjectedFsyncFaultTruncatesBack) {
  const std::string path = FreshLogPath("fault_fsync");
  ASSERT_TRUE(AppendCleaningLog(path, {EncodeLogRecord(Fix(1, 0, 1))}).ok());
  const std::string before = ReadAll(path);
  ASSERT_TRUE(FaultInjection::Configure("log.fsync=once").ok());
  // The bytes land, then the fsync fails: the append must truncate back
  // so the file never holds records that were not acknowledged durable.
  EXPECT_FALSE(AppendCleaningLog(path, {EncodeLogRecord(Fix(2, 1, 0))}).ok());
  EXPECT_EQ(ReadAll(path), before);
}

TEST_F(CleaningLogTest, InjectedReplayFaultSurfaces) {
  RandomDatasetSpec spec;
  spec.num_examples = 4;
  spec.seed = 35;
  IncompleteDataset live = MakeRandomDataset(spec);
  const uint64_t v0 = live.version();
  live.FixExample(0, 0);
  IncompleteDataset base = live;
  ASSERT_TRUE(FaultInjection::Configure("log.replay=once").ok());
  EXPECT_FALSE(
      ReplayCleaningLog(live.JournalSince(v0), v0, &base, nullptr).ok());
}

}  // namespace
}  // namespace cpclean
