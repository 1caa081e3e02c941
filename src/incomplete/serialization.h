#ifndef CPCLEAN_INCOMPLETE_SERIALIZATION_H_
#define CPCLEAN_INCOMPLETE_SERIALIZATION_H_

#include <string>
#include <vector>

#include "common/result.h"
#include "incomplete/incomplete_dataset.h"

namespace cpclean {

/// Plain-text serialization of an incomplete dataset plus named sections
/// of opaque payload lines — the session store's snapshot format, which
/// keeps a session's worked-on candidate space and its cleaning state
/// (request spec, cleaning order, audit trail, task fingerprint) in one
/// recoverable file. Format (line-oriented; blank lines and '#' comments
/// allowed):
///
///   cpclean-incomplete-v3 <num_labels> <dim> <version>
///   example <label> <num_candidates>
///   <v0> <v1> ... <v_dim-1>           # one line per candidate
///   ...
///   section <name>
///   <payload line>
///   ...
///   end
///
/// Doubles round-trip exactly (hex float encoding). `version` is the
/// dataset's `version()`, the sequence-number anchor for the append-only
/// cleaning log: a `<name>.cplog` record with seq > the snapshot's version
/// is newer than the snapshot and is replayed on rehydration. Sections are
/// a trailer (no example after the first one). Payload lines are stored
/// verbatim; they must be non-empty, free of surrounding whitespace, must
/// not start with '#', and must not equal "end" — the framing reserves
/// those.

/// One named section of a snapshot document.
struct SerializedSection {
  std::string name;
  std::vector<std::string> lines;
};

/// Serializes `dataset` plus `sections`. CP_CHECK-fails on section
/// names/lines that violate the framing rules above.
std::string SerializeIncompleteDataset(
    const IncompleteDataset& dataset,
    const std::vector<SerializedSection>& sections);

struct DeserializedDataset {
  /// Carries the stored version (`OverrideVersionForReplay`).
  IncompleteDataset dataset;
  std::vector<SerializedSection> sections;
};

/// Parses text produced by `SerializeIncompleteDataset`; any other header
/// (including the retired v1/v2 formats) is a ParseError.
Result<DeserializedDataset> DeserializeIncompleteDataset(
    const std::string& text);

}  // namespace cpclean

#endif  // CPCLEAN_INCOMPLETE_SERIALIZATION_H_
