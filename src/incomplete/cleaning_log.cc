#include "incomplete/cleaning_log.h"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "common/checksum.h"
#include "common/fault_injection.h"
#include "common/logging.h"
#include "common/string_util.h"

namespace cpclean {

namespace {

constexpr char kLogMagic[] = "cpclean-log-v1";

Result<uint64_t> ParseUint64(const std::string& text) {
  if (text.empty()) return Status::ParseError("empty integer");
  errno = 0;
  char* end = nullptr;
  const unsigned long long value = std::strtoull(text.c_str(), &end, 10);
  if (errno != 0 || end != text.c_str() + text.size()) {
    return Status::ParseError("bad integer: " + text);
  }
  return static_cast<uint64_t>(value);
}

/// The record's body as EncodeLogRecord writes it.
std::string FixBody(const MutationRecord& record) {
  return StrFormat("fix %llu %d %d",
                   static_cast<unsigned long long>(record.seq),
                   record.example, record.candidate);
}

/// The checksum field of a record line: 16 lower-case hex digits.
std::string ChecksumHex(const std::string& body) {
  return StrFormat("%016llx", static_cast<unsigned long long>(Fnv1a64(body)));
}

/// The body of a `<body> #<fnv hex>` line whose checksum verifies. A
/// failure here is what a torn append leaves behind. The checksum must be
/// spelled exactly as EncodeLogRecord writes it (parsing it as a number
/// would also take upper-case digits, a sign or leading blanks), so every
/// accepted line is the one encoding of its record.
Result<std::string> VerifiedBody(const std::string& line) {
  const size_t hash = line.rfind(" #");
  if (hash == std::string::npos || line.size() != hash + 18) {
    return Status::ParseError("log record missing checksum: " + line);
  }
  std::string body = line.substr(0, hash);
  if (line.compare(hash + 2, 16, ChecksumHex(body)) != 0) {
    return Status::ParseError("log record checksum mismatch: " + line);
  }
  return body;
}

Result<MutationRecord> ParseFixBody(const std::string& body) {
  const std::vector<std::string> fields = Split(body, ' ');
  if (fields.size() != 4 || fields[0] != "fix") {
    return Status::ParseError("not a fix record: " + body);
  }
  MutationRecord record;
  CP_ASSIGN_OR_RETURN(record.seq, ParseUint64(fields[1]));
  CP_ASSIGN_OR_RETURN(record.example, ParseInt(fields[2]));
  CP_ASSIGN_OR_RETURN(record.candidate, ParseInt(fields[3]));
  // The number parsers take signs, blanks and leading zeros; only the one
  // spelling EncodeLogRecord writes is a record.
  if (FixBody(record) != body) {
    return Status::ParseError("non-canonical fix record: " + body);
  }
  return record;
}

}  // namespace

std::string EncodeLogRecord(const MutationRecord& record) {
  const std::string body = FixBody(record);
  return body + " #" + ChecksumHex(body);
}

Result<MutationRecord> DecodeLogRecord(const std::string& line) {
  CP_ASSIGN_OR_RETURN(const std::string body, VerifiedBody(line));
  return ParseFixBody(body);
}

Result<LogScan> ScanCleaningLog(const std::string& path) {
  LogScan scan;
  std::ifstream file(path, std::ios::binary);
  if (!file) return scan;  // no log = empty log
  std::ostringstream buffer;
  buffer << file.rdbuf();
  const std::string text = buffer.str();
  if (text.empty()) return scan;

  size_t pos = 0;
  bool saw_header = false;
  while (pos < text.size()) {
    const size_t nl = text.find('\n', pos);
    if (nl == std::string::npos) {
      // No newline: this line never finished landing. Only legal at EOF.
      scan.truncated_tail = true;
      return scan;
    }
    const std::string line = text.substr(pos, nl - pos);
    const size_t line_end = nl + 1;
    if (!saw_header) {
      if (line != kLogMagic) {
        // A torn first write can leave a partial header; only the final
        // line may be damaged, and the header is final iff nothing follows.
        if (line_end >= text.size()) {
          scan.truncated_tail = true;
          return scan;
        }
        return Status::IoError("cleaning log has a bad header: " + path);
      }
      saw_header = true;
      scan.durable_bytes = line_end;
      pos = line_end;
      continue;
    }
    const Result<std::string> body = VerifiedBody(line);
    if (!body.ok()) {
      if (line_end >= text.size()) {
        scan.truncated_tail = true;  // torn final record: drop it
        return scan;
      }
      return Status::IoError(StrFormat(
          "cleaning log corrupt mid-file at byte %zu: %s", pos,
          body.status().message().c_str()));
    }
    // A line whose checksum verifies was written whole: if it does not
    // parse, the log is corrupt wherever the line sits, never torn.
    Result<MutationRecord> record = ParseFixBody(body.value());
    if (!record.ok()) {
      return Status::IoError(StrFormat(
          "cleaning log record at byte %zu is malformed: %s", pos,
          record.status().message().c_str()));
    }
    if (record.value().seq <= scan.last_seq) {
      return Status::IoError("cleaning log sequence numbers not increasing");
    }
    scan.last_seq = record.value().seq;
    scan.records.push_back(std::move(record.value()));
    scan.durable_bytes = line_end;
    pos = line_end;
  }
  return scan;
}

Result<LogScan> ScanCleaningLogForAppend(const std::string& path) {
  CP_ASSIGN_OR_RETURN(LogScan scan, ScanCleaningLog(path));
  if (scan.truncated_tail) {
    std::error_code ec;
    std::filesystem::resize_file(path, scan.durable_bytes, ec);
    if (ec) {
      return Status::IoError("cannot truncate torn log tail: " + path);
    }
  }
  return scan;
}

Result<size_t> AppendCleaningLog(const std::string& path,
                                 const std::vector<std::string>& lines) {
  if (FaultHit("log.append")) {
    return Status::IoError("injected fault: log.append");
  }
  const int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
  if (fd < 0) {
    return Status::IoError(StrFormat("cannot open log %s: %s", path.c_str(),
                                     std::strerror(errno)));
  }
  const off_t start = ::lseek(fd, 0, SEEK_END);
  std::string payload;
  if (start == 0) {
    payload += kLogMagic;
    payload += '\n';
  }
  for (const std::string& line : lines) {
    payload += line;
    payload += '\n';
  }
  auto fail = [&](const char* what) {
    // Best-effort rewind so an in-process retry appends to a clean
    // boundary (a crash instead leaves a torn tail for the scanner).
    if (start >= 0) ::ftruncate(fd, start);
    ::close(fd);
    return Status::IoError(StrFormat("log %s failed for %s: %s", what,
                                     path.c_str(), std::strerror(errno)));
  };
  size_t written = 0;
  while (written < payload.size()) {
    const ssize_t n =
        ::write(fd, payload.data() + written, payload.size() - written);
    if (n <= 0) return fail("append");
    written += static_cast<size_t>(n);
  }
  if (FaultHit("log.fsync") || ::fsync(fd) != 0) return fail("fsync");
  ::close(fd);
  return payload.size();
}

Status ReplayCleaningLog(const std::vector<MutationRecord>& records,
                         uint64_t from_seq, IncompleteDataset* dataset,
                         std::vector<int>* fixed_examples) {
  if (FaultHit("log.replay")) {
    return Status::IoError("injected fault: log.replay");
  }
  for (const MutationRecord& record : records) {
    if (record.seq <= from_seq) continue;
    if (record.seq != dataset->version() + 1) {
      return Status::IoError(StrFormat(
          "log replay gap: record seq %llu onto dataset version %llu",
          static_cast<unsigned long long>(record.seq),
          static_cast<unsigned long long>(dataset->version())));
    }
    if (record.example < 0 || record.example >= dataset->num_examples() ||
        record.candidate < 0 ||
        record.candidate >= dataset->num_candidates(record.example)) {
      return Status::IoError("log fix record out of range");
    }
    dataset->FixExample(record.example, record.candidate);
    if (fixed_examples != nullptr) fixed_examples->push_back(record.example);
  }
  return Status::OK();
}

}  // namespace cpclean
