// CSV ingestion: parse delimited text into a Relation, dictionary-
// encoding every cell. Supports quoted fields with embedded delimiters
// and doubled quotes (RFC 4180 subset, no embedded newlines).
#ifndef XJOIN_RELATIONAL_CSV_H_
#define XJOIN_RELATIONAL_CSV_H_

#include <string>
#include <string_view>
#include <vector>

#include "common/dictionary.h"
#include "common/status.h"
#include "relational/relation.h"
#include "relational/value.h"

namespace xjoin {

/// Options for ReadCsv.
struct CsvOptions {
  char delimiter = ',';
  /// If true the first line provides attribute names; otherwise names are
  /// col0, col1, ...
  bool has_header = true;
  /// Per-column types; if empty every column is kString. Values are parsed
  /// and re-canonicalized through Value so "007" (int64) and "7" encode
  /// identically.
  std::vector<ValueType> types;
};

/// Parses `text` into a relation, interning every cell into `dict` in
/// row-major order (through Dictionary::InternMany, a chunk at a time).
/// Parse errors name the line, counting non-empty lines.
Result<Relation> ReadCsv(std::string_view text, const CsvOptions& options,
                         Dictionary* dict);

/// Reads a file and delegates to ReadCsv.
Result<Relation> ReadCsvFile(const std::string& path, const CsvOptions& options,
                             Dictionary* dict);

/// Renders `relation` as CSV, decoding codes through `dict`.
std::string WriteCsv(const Relation& relation, const Dictionary& dict,
                     char delimiter = ',');

}  // namespace xjoin

#endif  // XJOIN_RELATIONAL_CSV_H_
