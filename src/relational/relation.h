// In-memory columnar relations over dictionary codes.
#ifndef XJOIN_RELATIONAL_RELATION_H_
#define XJOIN_RELATIONAL_RELATION_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "relational/schema.h"

namespace xjoin {

/// A tuple is one int64 code per schema attribute, in schema order.
using Tuple = std::vector<int64_t>;

/// Column-oriented storage for a bag of tuples. Rows are addressed by
/// index; columns are contiguous vectors (cache-friendly scans, cheap
/// column projection for trie building).
class Relation {
 public:
  /// Creates an empty relation with the given schema.
  explicit Relation(Schema schema);

  const Schema& schema() const { return schema_; }
  size_t num_columns() const { return columns_.size(); }
  size_t num_rows() const { return columns_.empty() ? 0 : columns_[0].size(); }

  /// Pre-reserves capacity for `rows` total rows in every column, so a
  /// producer with a size estimate (the join engine uses its level-0
  /// key-count estimate) avoids incremental growth entirely.
  void Reserve(size_t rows);

  /// Appends a row given in schema order. Precondition: row.size() == arity.
  void AppendRow(const Tuple& row);

  /// Appends `num_rows` rows given columnar (SoA): columns[c] points at
  /// `num_rows` values of attribute c, in schema order. One geometric
  /// reserve + contiguous copy per column, with no per-row temporaries.
  /// Precondition: columns has num_columns() entries.
  void AppendColumnBlock(const int64_t* const* columns, size_t num_rows);

  /// Appends `num_rows` rows that share their first num_columns() - 1
  /// cells, prefix[0..num_columns()-2], and take their last cell from
  /// keys[0..num_rows-1] — the run a join's deepest level emits under
  /// one bound prefix. One fill per prefix column and one contiguous copy
  /// for the last, each growing geometrically. Precondition:
  /// prefix.size() >= num_columns() - 1 and num_columns() >= 1.
  void AppendRun(const Tuple& prefix, const int64_t* keys, size_t num_rows);

  /// Appends every row of `other`, in order, by bulk column splice —
  /// O(columns) vector inserts, no per-row temporaries. Precondition:
  /// identical schema (same attribute names in the same order).
  void AppendRows(const Relation& other);

  /// Cell accessor.
  int64_t at(size_t row, size_t col) const { return columns_[col][row]; }

  /// Materializes row `row` as a Tuple.
  Tuple GetRow(size_t row) const;

  /// Whole column (by position).
  const std::vector<int64_t>& column(size_t col) const { return columns_[col]; }

  /// Column by attribute name; fails if the attribute is absent.
  Result<const std::vector<int64_t>*> ColumnByName(
      const std::string& name) const;

  /// Sorts rows lexicographically over all columns, in schema order, and
  /// removes duplicate rows (SortRowsLexicographically, then one pass).
  /// Turns bags into sets for projection and result comparison.
  void SortAndDedup();

  /// Returns all rows as tuples, in storage order.
  std::vector<Tuple> ToTuples() const;

  /// Builds a relation from schema + tuples (validates arity).
  static Result<Relation> FromTuples(Schema schema, std::vector<Tuple> tuples);

  /// True if `row` (schema order) occurs in this relation. O(n) scan;
  /// intended for tests.
  bool ContainsRow(const Tuple& row) const;

  /// Multi-line debug rendering (at most `max_rows` rows).
  std::string ToString(size_t max_rows = 20) const;

 private:
  Schema schema_;
  std::vector<std::vector<int64_t>> columns_;
};

/// Sets `*rows` to the permutation of [0, n) that orders the rows of
/// `columns` (each of length n) lexicographically, columns[0] most
/// significant. Inputs of at least 256 rows take a stable LSD radix
/// sort — one counting pass per column byte that actually varies, so
/// small dictionary codes cost 1-2 passes per column; smaller inputs
/// take a comparator std::sort. Returns true when the radix sort ran.
/// The one row sort of the codebase: trie builds and SortAndDedup both
/// use it.
bool SortRowsLexicographically(
    const std::vector<const std::vector<int64_t>*>& columns,
    std::vector<size_t>* rows);

}  // namespace xjoin

#endif  // XJOIN_RELATIONAL_RELATION_H_
