// Fixed-capacity columnar (SoA) staging buffer for join results. The
// batched generic-join engine emits bindings into a ResultBatch and
// flushes full batches into the output Relation through
// Relation::AppendColumnBlock — one contiguous copy per column instead
// of one Tuple allocation plus per-column push_back per row.
#ifndef XJOIN_RELATIONAL_RESULT_BATCH_H_
#define XJOIN_RELATIONAL_RESULT_BATCH_H_

#include <cstdint>
#include <vector>

#include "relational/relation.h"

namespace xjoin {

/// Default result-batch capacity in rows — the batch_size that
/// GenericJoinOptions and PlanSettings start from. 1024 rows keeps a
/// batch's working set (8 KiB per column) inside L1/L2 while amortizing
/// the per-block dispatch overhead; the equivalence suites hold results
/// byte-identical at every size, so the constant is purely a
/// performance knob.
inline constexpr int kDefaultResultBatchCapacity = 1024;

/// One column per output attribute, at most `capacity` staged rows.
/// Append order is preserved by Flush, so producers that emit rows in
/// result order stay deterministic through batching.
class ResultBatch {
 public:
  /// Precondition: arity >= 1, capacity >= 1.
  ResultBatch(size_t arity, size_t capacity);

  size_t arity() const { return cols_.size(); }
  size_t capacity() const { return capacity_; }
  size_t size() const { return cols_[0].size(); }
  bool empty() const { return size() == 0; }
  bool full() const { return size() >= capacity_; }

  /// Stages `count` rows that share row[0..arity-2] == prefix[0..arity-2]
  /// and take their last column from keys[0..count-1] — the shape a
  /// last-level key run produces. Column-at-a-time: one fill per prefix
  /// column, one contiguous copy for the key column. Precondition:
  /// count <= capacity() - size().
  void PushRun(const std::vector<int64_t>& prefix, const int64_t* keys,
               size_t count);

  /// Appends all staged rows to `out` (via AppendColumnBlock) and clears
  /// the batch. No-op when empty. Precondition: out has arity() columns.
  void Flush(Relation* out);

 private:
  size_t capacity_;
  std::vector<std::vector<int64_t>> cols_;
  std::vector<const int64_t*> col_ptrs_;  // scratch for Flush
};

}  // namespace xjoin

#endif  // XJOIN_RELATIONAL_RESULT_BATCH_H_
