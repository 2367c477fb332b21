#include "relational/csv.h"

#include <algorithm>
#include <cstring>
#include <fstream>
#include <sstream>

#include "common/string_util.h"

namespace xjoin {

namespace {

// One pass over the input: lines are found with memchr and split in
// place. A field without quotes is a view into the input; a line with
// quotes has its fields unescaped into scratch_. Cells are interned
// row-major in chunks of at most Dictionary::kBulkChunk and appended to
// the relation as column runs, so codes come out exactly as if every
// cell were interned in turn.
class CsvReader {
 public:
  CsvReader(std::string_view text, const CsvOptions& options, Dictionary* dict)
      : text_(text), options_(options), dict_(dict) {}

  Result<Relation> Run() {
    std::string_view line;
    if (!NextLine(&line)) return Status::ParseError("empty CSV input");
    XJ_RETURN_NOT_OK(SplitLine(line));
    const size_t arity = fields_.size();
    std::vector<std::string> names;
    if (options_.has_header) {
      for (const Field& f : fields_) {
        names.emplace_back(TrimWhitespace(View(f)));
      }
      scratch_.clear();
    } else {
      for (size_t c = 0; c < arity; ++c)
        names.push_back("col" + std::to_string(c));
    }
    if (!options_.types.empty() && options_.types.size() != arity) {
      return Status::InvalidArgument("CSV type list arity mismatch");
    }
    XJ_ASSIGN_OR_RETURN(Schema schema, Schema::Make(std::move(names)));
    Relation rel(std::move(schema));
    column_codes_.resize(arity);
    column_ptrs_.resize(arity);

    Status status = options_.has_header ? Status::OK() : AddRow(&rel);
    while (status.ok() && NextLine(&line)) {
      status = SplitLine(line);
      if (status.ok()) status = AddRow(&rel);
    }
    // Rows before a failing one are interned, as a row-by-row load
    // would have left them; only a loaded relation gets them.
    Flush(status.ok() ? &rel : nullptr);
    XJ_RETURN_NOT_OK(status);
    return rel;
  }

 private:
  // A field's bytes: in the input, or (for a line with quotes) unescaped
  // in scratch_.
  struct Field {
    size_t offset;
    size_t size;
    bool in_scratch;
  };

  std::string_view View(const Field& f) const {
    const char* base = f.in_scratch ? scratch_.data() : text_.data();
    return std::string_view(base + f.offset, f.size);
  }

  // The next non-empty line, without its '\n' and a trailing '\r'.
  bool NextLine(std::string_view* line) {
    while (pos_ < text_.size()) {
      const char* start = text_.data() + pos_;
      const size_t rest = text_.size() - pos_;
      const char* newline =
          static_cast<const char*>(std::memchr(start, '\n', rest));
      const size_t size = newline ? static_cast<size_t>(newline - start) : rest;
      pos_ += size + 1;
      ++line_no_;
      *line = std::string_view(start, size);
      if (!line->empty() && line->back() == '\r') line->remove_suffix(1);
      if (!line->empty()) return true;
    }
    return false;
  }

  Status LineError(const std::string& msg) const {
    return Status::ParseError("line " + std::to_string(line_no_) + ": " + msg);
  }

  // Splits `line` into fields_. Quotes may open anywhere in a field; a
  // doubled quote inside quotes is one literal quote.
  Status SplitLine(std::string_view line) {
    fields_.clear();
    const size_t line_offset = static_cast<size_t>(line.data() - text_.data());
    const char delimiter = options_.delimiter;
    if (std::memchr(line.data(), '"', line.size()) == nullptr) {
      size_t start = 0;
      for (;;) {
        const size_t at = line.find(delimiter, start);
        const size_t end = at == std::string_view::npos ? line.size() : at;
        fields_.push_back(Field{line_offset + start, end - start, false});
        if (at == std::string_view::npos) return Status::OK();
        start = at + 1;
      }
    }
    bool in_quotes = false;
    size_t field_start = scratch_.size();
    for (size_t i = 0; i < line.size(); ++i) {
      const char c = line[i];
      if (in_quotes) {
        if (c == '"') {
          if (i + 1 < line.size() && line[i + 1] == '"') {
            scratch_ += '"';
            ++i;
          } else {
            in_quotes = false;
          }
        } else {
          scratch_ += c;
        }
      } else if (c == '"') {
        in_quotes = true;
      } else if (c == delimiter) {
        fields_.push_back(
            Field{field_start, scratch_.size() - field_start, true});
        field_start = scratch_.size();
      } else {
        scratch_ += c;
      }
    }
    if (in_quotes) return LineError("unterminated quote");
    fields_.push_back(Field{field_start, scratch_.size() - field_start, true});
    return Status::OK();
  }

  // Queues the split line's cells. A typed cell is queued as its value's
  // canonical text, so "007" and "7" in an int64 column share a code.
  Status AddRow(Relation* rel) {
    const size_t arity = column_codes_.size();
    if (fields_.size() != arity) {
      return LineError("expected " + std::to_string(arity) +
                       " fields, got " + std::to_string(fields_.size()));
    }
    for (size_t c = 0; c < arity; ++c) {
      if (options_.types.empty() || options_.types[c] == ValueType::kString) {
        cells_.push_back(fields_[c]);
        continue;
      }
      auto value = ParseValue(options_.types[c], View(fields_[c]));
      if (!value.ok()) {
        return value.status().WithContext("line " + std::to_string(line_no_));
      }
      const std::string canonical = value->ToString();
      cells_.push_back(Field{scratch_.size(), canonical.size(), true});
      scratch_ += canonical;
    }
    ++rows_;
    if (cells_.size() + arity > Dictionary::kBulkChunk) Flush(rel);
    return Status::OK();
  }

  // Interns the queued cells in order and, when `rel` is set, appends
  // the queued rows to it.
  void Flush(Relation* rel) {
    const size_t n = cells_.size();
    views_.resize(n);
    codes_.resize(n);
    for (size_t i = 0; i < n; ++i) views_[i] = View(cells_[i]);
    for (size_t at = 0; at < n; at += Dictionary::kBulkChunk) {
      dict_->InternMany(views_.data() + at,
                        std::min(Dictionary::kBulkChunk, n - at),
                        codes_.data() + at);
    }
    if (rel != nullptr && rows_ > 0) {
      const size_t arity = column_codes_.size();
      for (size_t c = 0; c < arity; ++c) {
        std::vector<int64_t>& column = column_codes_[c];
        column.resize(rows_);
        for (size_t r = 0; r < rows_; ++r) column[r] = codes_[r * arity + c];
        column_ptrs_[c] = column.data();
      }
      rel->AppendColumnBlock(column_ptrs_.data(), rows_);
    }
    cells_.clear();
    scratch_.clear();
    rows_ = 0;
  }

  const std::string_view text_;
  const CsvOptions& options_;
  Dictionary* const dict_;
  size_t pos_ = 0;
  // The physical line NextLine last read, blank ones counted; error
  // messages number lines by it.
  size_t line_no_ = 0;
  // The current line's fields; unescaped fields and canonical texts.
  std::vector<Field> fields_;
  std::string scratch_;
  // Cells queued for the next Flush, row-major, and their row count.
  std::vector<Field> cells_;
  size_t rows_ = 0;
  // Flush's buffers, reused.
  std::vector<std::string_view> views_;
  std::vector<int64_t> codes_;
  std::vector<std::vector<int64_t>> column_codes_;
  std::vector<const int64_t*> column_ptrs_;
};

}  // namespace

Result<Relation> ReadCsv(std::string_view text, const CsvOptions& options,
                         Dictionary* dict) {
  return CsvReader(text, options, dict).Run();
}

Result<Relation> ReadCsvFile(const std::string& path, const CsvOptions& options,
                             Dictionary* dict) {
  std::ifstream in(path);
  if (!in) return Status::IOError("cannot open " + path);
  std::ostringstream buf;
  buf << in.rdbuf();
  std::string text = buf.str();
  auto rel = ReadCsv(text, options, dict);
  if (!rel.ok()) return rel.status().WithContext(path);
  return rel;
}

std::string WriteCsv(const Relation& relation, const Dictionary& dict,
                     char delimiter) {
  std::ostringstream out;
  const auto& schema = relation.schema();
  for (size_t c = 0; c < schema.size(); ++c) {
    if (c) out << delimiter;
    out << schema.attribute(c);
  }
  out << "\n";
  for (size_t r = 0; r < relation.num_rows(); ++r) {
    for (size_t c = 0; c < relation.num_columns(); ++c) {
      if (c) out << delimiter;
      const std::string& s = dict.Decode(relation.at(r, c));
      bool needs_quote = s.find(delimiter) != std::string::npos ||
                         s.find('"') != std::string::npos;
      if (needs_quote) {
        out << '"';
        for (char ch : s) {
          if (ch == '"') out << '"';
          out << ch;
        }
        out << '"';
      } else {
        out << s;
      }
    }
    out << "\n";
  }
  return out.str();
}

}  // namespace xjoin
