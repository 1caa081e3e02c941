#ifndef CPCLEAN_INCOMPLETE_CLEANING_LOG_H_
#define CPCLEAN_INCOMPLETE_CLEANING_LOG_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/result.h"
#include "incomplete/incomplete_dataset.h"

namespace cpclean {

/// The append-only cleaning log: the O(delta) persistence companion to a
/// base snapshot. A cleaning step is the one mutation it records: each
/// line is one fix `MutationRecord` in a fixed text format with a trailing
/// FNV-1a checksum:
///
///   cpclean-log-v1
///   fix <seq> <example> <candidate> #<fnv64hex>
///
/// `seq` is the dataset `version()` immediately after the fix.
/// A record is durable once its full line (newline included) is on disk.
/// A torn *final* line — no newline, or a checksum that does not verify,
/// the only damage a killed append can leave — is dropped. Any earlier
/// damage, and any line whose checksum verifies but which is not a
/// well-formed fix record, is surfaced as corruption.
///
/// Fault sites: `log.append`, `log.fsync`, `log.replay`.

/// Encodes one record as a checksummed log line (no trailing newline).
std::string EncodeLogRecord(const MutationRecord& record);

/// Decodes one log line; fails on a checksum mismatch or on a body that
/// is not a well-formed fix record.
Result<MutationRecord> DecodeLogRecord(const std::string& line);

struct LogScan {
  std::vector<MutationRecord> records;
  /// version() the log reaches (0 when empty).
  uint64_t last_seq = 0;
  /// Byte offset just past the last durable record — the append point.
  size_t durable_bytes = 0;
  /// True when a torn final record was dropped.
  bool truncated_tail = false;
};

/// Reads and validates a log file. A missing file scans as empty; a torn
/// final record is tolerated (`truncated_tail`); a bad record anywhere
/// before the tail, or a checksummed record that does not parse, is an
/// IoError.
Result<LogScan> ScanCleaningLog(const std::string& path);

/// Scans and then truncates any torn tail off the file, so subsequent
/// appends land on a record boundary.
Result<LogScan> ScanCleaningLogForAppend(const std::string& path);

/// Appends encoded record lines (creating the file, with its header, when
/// absent) and fsyncs. On any failure the file is truncated back to its
/// pre-append length (best effort) so an in-process retry stays clean.
/// Returns the number of bytes appended. Fault sites log.append/log.fsync.
Result<size_t> AppendCleaningLog(const std::string& path,
                                 const std::vector<std::string>& lines);

/// Applies every record with seq > `from_seq` to `dataset`, in order,
/// requiring strictly increasing sequence numbers that continue from the
/// dataset's own version. Appends the example index of each applied
/// record to `fixed_examples` when non-null. Fault site log.replay.
Status ReplayCleaningLog(const std::vector<MutationRecord>& records,
                         uint64_t from_seq, IncompleteDataset* dataset,
                         std::vector<int>* fixed_examples);

}  // namespace cpclean

#endif  // CPCLEAN_INCOMPLETE_CLEANING_LOG_H_
