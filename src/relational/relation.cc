#include "relational/relation.h"

#include <algorithm>
#include <numeric>
#include <sstream>

#include "common/logging.h"

namespace xjoin {

namespace {

// Below this row count the comparator std::sort beats the radix passes'
// setup cost.
constexpr size_t kRadixMinRows = 256;

// Order-preserving map from int64 to uint64 (flips the sign bit so
// unsigned digit comparison matches signed order).
inline uint64_t OrderedBits(int64_t v) {
  return static_cast<uint64_t>(v) ^ (uint64_t{1} << 63);
}

// One stable LSD counting pass over 8-bit digits at `shift`, permuting
// `src` into `dst` by biased[row]'s digit. Returns false (dst untouched)
// when every key shares the digit, so callers skip the permute.
bool RadixPass(const std::vector<uint64_t>& biased, int shift,
               const std::vector<size_t>& src, std::vector<size_t>* dst) {
  size_t count[256] = {0};
  for (size_t r : src) ++count[(biased[r] >> shift) & 0xFF];
  size_t offsets[256];
  size_t running = 0;
  for (int digit = 0; digit < 256; ++digit) {
    if (count[digit] == src.size()) return false;
    offsets[digit] = running;
    running += count[digit];
  }
  for (size_t r : src) {
    (*dst)[offsets[(biased[r] >> shift) & 0xFF]++] = r;
  }
  return true;
}

// Stable-sorts `rows` by `col` (ascending) with an LSD radix over the
// bytes that actually vary; constant bytes cost one pass over the column
// (the variation mask), nothing more.
void StableRadixSortByColumn(const std::vector<int64_t>& col,
                             std::vector<size_t>* rows,
                             std::vector<size_t>* scratch,
                             std::vector<uint64_t>* biased) {
  const size_t n = col.size();
  uint64_t first = OrderedBits(col[0]);
  uint64_t varying = 0;
  for (size_t i = 0; i < n; ++i) {
    (*biased)[i] = OrderedBits(col[i]);
    varying |= (*biased)[i] ^ first;
  }
  for (int byte = 0; byte < 8; ++byte) {
    if (((varying >> (8 * byte)) & 0xFF) == 0) continue;
    if (RadixPass(*biased, 8 * byte, *rows, scratch)) rows->swap(*scratch);
  }
}

// Makes room for `more` values in `col`, geometrically: vector::insert
// is only required to fit, so an unlucky sequence of block appends could
// otherwise reallocate on every append.
void GrowFor(std::vector<int64_t>* col, size_t more) {
  size_t need = col->size() + more;
  if (need > col->capacity()) {
    col->reserve(std::max(need, col->capacity() * 2));
  }
}

}  // namespace

bool SortRowsLexicographically(
    const std::vector<const std::vector<int64_t>*>& columns,
    std::vector<size_t>* rows) {
  const size_t n = columns.empty() ? 0 : columns[0]->size();
  const size_t k = columns.size();
  rows->resize(n);
  std::iota(rows->begin(), rows->end(), size_t{0});
  if (n >= kRadixMinRows) {
    // LSD: least-significant column first; each pass is stable, so the
    // more significant columns' passes keep earlier orderings as ties.
    std::vector<size_t> scratch(n);
    std::vector<uint64_t> biased(n);
    for (size_t c = k; c-- > 0;) {
      StableRadixSortByColumn(*columns[c], rows, &scratch, &biased);
    }
    return true;
  }
  std::sort(rows->begin(), rows->end(), [&](size_t a, size_t b) {
    for (size_t c = 0; c < k; ++c) {
      if ((*columns[c])[a] != (*columns[c])[b]) {
        return (*columns[c])[a] < (*columns[c])[b];
      }
    }
    return false;
  });
  return false;
}

Relation::Relation(Schema schema) : schema_(std::move(schema)) {
  columns_.resize(schema_.size());
}

void Relation::Reserve(size_t rows) {
  for (auto& col : columns_) col.reserve(rows);
}

void Relation::AppendRow(const Tuple& row) {
  XJ_DCHECK(row.size() == columns_.size());
  for (size_t c = 0; c < columns_.size(); ++c) columns_[c].push_back(row[c]);
}

void Relation::AppendColumnBlock(const int64_t* const* columns,
                                 size_t num_rows) {
  for (size_t c = 0; c < columns_.size(); ++c) {
    std::vector<int64_t>& col = columns_[c];
    GrowFor(&col, num_rows);
    col.insert(col.end(), columns[c], columns[c] + num_rows);
  }
}

void Relation::AppendRun(const Tuple& prefix, const int64_t* keys,
                         size_t num_rows) {
  XJ_DCHECK(!columns_.empty() && prefix.size() + 1 >= columns_.size());
  const size_t last = columns_.size() - 1;
  for (size_t c = 0; c < last; ++c) {
    GrowFor(&columns_[c], num_rows);
    columns_[c].insert(columns_[c].end(), num_rows, prefix[c]);
  }
  GrowFor(&columns_[last], num_rows);
  columns_[last].insert(columns_[last].end(), keys, keys + num_rows);
}

void Relation::AppendRows(const Relation& other) {
  XJ_DCHECK(schema_ == other.schema_);
  for (size_t c = 0; c < columns_.size(); ++c) {
    columns_[c].insert(columns_[c].end(), other.columns_[c].begin(),
                       other.columns_[c].end());
  }
}

Tuple Relation::GetRow(size_t row) const {
  Tuple t(columns_.size());
  for (size_t c = 0; c < columns_.size(); ++c) t[c] = columns_[c][row];
  return t;
}

Result<const std::vector<int64_t>*> Relation::ColumnByName(
    const std::string& name) const {
  int idx = schema_.IndexOf(name);
  if (idx < 0) return Status::NotFound("no attribute " + name);
  return &columns_[static_cast<size_t>(idx)];
}

void Relation::SortAndDedup() {
  const size_t n = num_rows();
  const size_t k = num_columns();
  if (n == 0 || k == 0) return;
  std::vector<const std::vector<int64_t>*> cols(k);
  for (size_t c = 0; c < k; ++c) cols[c] = &columns_[c];
  std::vector<size_t> order;
  SortRowsLexicographically(cols, &order);
  std::vector<std::vector<int64_t>> out(k);
  for (auto& col : out) col.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    size_t r = order[i];
    if (i > 0) {
      size_t prev = order[i - 1];
      bool same = true;
      for (size_t c = 0; c < k; ++c) {
        if (columns_[c][r] != columns_[c][prev]) {
          same = false;
          break;
        }
      }
      if (same) continue;
    }
    for (size_t c = 0; c < k; ++c) out[c].push_back(columns_[c][r]);
  }
  columns_ = std::move(out);
}

std::vector<Tuple> Relation::ToTuples() const {
  std::vector<Tuple> out;
  out.reserve(num_rows());
  for (size_t r = 0; r < num_rows(); ++r) out.push_back(GetRow(r));
  return out;
}

Result<Relation> Relation::FromTuples(Schema schema,
                                      std::vector<Tuple> tuples) {
  Relation rel(std::move(schema));
  for (const auto& t : tuples) {
    if (t.size() != rel.num_columns()) {
      return Status::InvalidArgument("tuple arity mismatch");
    }
    rel.AppendRow(t);
  }
  return rel;
}

bool Relation::ContainsRow(const Tuple& row) const {
  if (row.size() != num_columns()) return false;
  for (size_t r = 0; r < num_rows(); ++r) {
    bool same = true;
    for (size_t c = 0; c < num_columns(); ++c) {
      if (columns_[c][r] != row[c]) {
        same = false;
        break;
      }
    }
    if (same) return true;
  }
  return false;
}

std::string Relation::ToString(size_t max_rows) const {
  std::ostringstream out;
  out << schema_.ToString("rel") << " [" << num_rows() << " rows]\n";
  for (size_t r = 0; r < std::min(max_rows, num_rows()); ++r) {
    out << "  (";
    for (size_t c = 0; c < num_columns(); ++c) {
      if (c) out << ", ";
      out << columns_[c][r];
    }
    out << ")\n";
  }
  if (num_rows() > max_rows) out << "  ...\n";
  return out.str();
}

}  // namespace xjoin
