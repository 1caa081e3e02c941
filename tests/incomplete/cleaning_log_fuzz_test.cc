// Seeded mutation fuzzing of the cleaning-log decoder. Lines from the
// pinned on-disk log and fresh EncodeLogRecord outputs are damaged with
// byte flips, inserts, truncations and splices under a fixed seed and a
// fixed budget. Whatever the damage, the decoder either refuses the input
// or returns exactly what the input canonically encodes: a decoded record
// re-encodes to the input line, and a scanned log's records re-encode to a
// prefix of the file that ends at the scan's append point.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/rng.h"
#include "incomplete/cleaning_log.h"

namespace cpclean {
namespace {

constexpr uint64_t kSeed = 20260601;
constexpr int kLineBudget = 100000;
constexpr int kFileBudget = 2000;
constexpr char kHeader[] = "cpclean-log-v1\n";

std::string PinnedLog() {
  std::ifstream file(std::string(CPCLEAN_SOURCE_DIR) +
                         "/tests/serve/pinned_store/pinned.cplog",
                     std::ios::binary);
  std::ostringstream buffer;
  buffer << file.rdbuf();
  return buffer.str();
}

/// The log's record lines, without the header and newlines.
std::vector<std::string> RecordLines(const std::string& log) {
  std::vector<std::string> lines;
  std::istringstream in(log);
  std::string line;
  std::getline(in, line);  // header
  while (std::getline(in, line)) lines.push_back(line);
  return lines;
}

/// A byte biased toward the log's own alphabet, so mutations often stay
/// close to well-formed: digits, hex letters in both cases, the
/// separators, signs and whitespace strtoull would skip.
char RandomByte(Rng* rng) {
  static const std::string kAlphabet = "0123456789abcdefABCDEF #fix+-x\t\n";
  if (rng->NextBernoulli(0.8)) {
    return kAlphabet[rng->NextUint64(kAlphabet.size())];
  }
  return static_cast<char>(rng->NextUint64(256));
}

/// One to three flips, inserts, truncations or splices of `input`;
/// splices graft a suffix of another corpus entry.
std::string Mutate(std::string input, const std::vector<std::string>& corpus,
                   Rng* rng) {
  const int rounds = rng->NextInt(1, 3);
  for (int round = 0; round < rounds; ++round) {
    switch (rng->NextInt(0, 3)) {
      case 0:  // flip one bit of one byte
        if (!input.empty()) {
          input[rng->NextUint64(input.size())] ^=
              static_cast<char>(1 << rng->NextInt(0, 7));
        }
        break;
      case 1:  // insert one byte
        input.insert(input.begin() + static_cast<std::ptrdiff_t>(
                                         rng->NextUint64(input.size() + 1)),
                     RandomByte(rng));
        break;
      case 2:  // truncate
        input.resize(rng->NextUint64(input.size() + 1));
        break;
      default: {  // splice
        const std::string& other = corpus[rng->NextUint64(corpus.size())];
        input = input.substr(0, rng->NextUint64(input.size() + 1)) +
                other.substr(rng->NextUint64(other.size() + 1));
        break;
      }
    }
  }
  return input;
}

std::vector<MutationRecord> RandomRecords(Rng* rng, int count) {
  std::vector<MutationRecord> records;
  uint64_t seq = 0;
  for (int i = 0; i < count; ++i) {
    seq += 1 + rng->NextUint64(1000);
    records.push_back(MutationRecord{seq, rng->NextInt(0, 100000),
                                     rng->NextInt(0, 50)});
  }
  return records;
}

TEST(CleaningLogFuzzTest, DecodedRecordsReencodeToTheirLine) {
  Rng rng(kSeed);
  std::vector<std::string> corpus = RecordLines(PinnedLog());
  ASSERT_FALSE(corpus.empty());
  for (const MutationRecord& record : RandomRecords(&rng, 64)) {
    corpus.push_back(EncodeLogRecord(record));
  }
  corpus.push_back(
      EncodeLogRecord(MutationRecord{UINT64_MAX, 2147483647, 2147483647}));
  int accepted = 0;
  for (int i = 0; i < kLineBudget; ++i) {
    const std::string& seed = corpus[rng.NextUint64(corpus.size())];
    const std::string line = Mutate(seed, corpus, &rng);
    const Result<MutationRecord> decoded = DecodeLogRecord(line);
    if (!decoded.ok()) continue;
    ++accepted;
    ASSERT_EQ(EncodeLogRecord(decoded.value()), line)
        << "case " << i << " mutated from \"" << seed << "\"";
  }
  // Splices and truncations that land back on a whole line keep the
  // invariant exercised on the accepting side too.
  EXPECT_GT(accepted, 0);
}

TEST(CleaningLogFuzzTest, ScannedRecordsReencodeToAFilePrefix) {
  Rng rng(kSeed + 1);
  std::string synthetic = kHeader;
  for (const MutationRecord& record : RandomRecords(&rng, 6)) {
    synthetic += EncodeLogRecord(record) + "\n";
  }
  const std::vector<std::string> corpus = {PinnedLog(), synthetic};
  ASSERT_FALSE(corpus[0].empty());
  const std::string path =
      ::testing::TempDir() + "/cpclean_cleaning_log_fuzz.cplog";
  int scanned_records = 0;
  for (int i = 0; i < kFileBudget; ++i) {
    const std::string& seed = corpus[rng.NextUint64(corpus.size())];
    const std::string text = Mutate(seed, corpus, &rng);
    {
      std::ofstream out(path, std::ios::binary | std::ios::trunc);
      out << text;
    }
    const Result<LogScan> scan = ScanCleaningLogForAppend(path);
    if (!scan.ok()) continue;
    if (scan.value().records.empty()) continue;
    scanned_records += static_cast<int>(scan.value().records.size());
    std::string encoded = kHeader;
    for (const MutationRecord& record : scan.value().records) {
      encoded += EncodeLogRecord(record) + "\n";
    }
    ASSERT_EQ(text.compare(0, encoded.size(), encoded), 0)
        << "case " << i << ": scan kept records the file does not hold";
    EXPECT_EQ(scan.value().durable_bytes, encoded.size()) << "case " << i;
  }
  std::remove(path.c_str());
  EXPECT_GT(scanned_records, 0);
}

}  // namespace
}  // namespace cpclean
