#include "relational/result_batch.h"

#include "common/logging.h"

namespace xjoin {

ResultBatch::ResultBatch(size_t arity, size_t capacity)
    : capacity_(capacity), cols_(arity), col_ptrs_(arity) {
  XJ_DCHECK(arity >= 1 && capacity >= 1);
  for (auto& col : cols_) col.reserve(capacity);
}

void ResultBatch::PushRun(const std::vector<int64_t>& prefix,
                          const int64_t* keys, size_t count) {
  XJ_DCHECK(count <= capacity_ - size());
  const size_t last = cols_.size() - 1;
  for (size_t c = 0; c < last; ++c) {
    cols_[c].insert(cols_[c].end(), count, prefix[c]);
  }
  cols_[last].insert(cols_[last].end(), keys, keys + count);
}

void ResultBatch::Flush(Relation* out) {
  if (empty()) return;
  for (size_t c = 0; c < cols_.size(); ++c) col_ptrs_[c] = cols_[c].data();
  out->AppendColumnBlock(col_ptrs_.data(), size());
  for (auto& col : cols_) col.clear();
}

}  // namespace xjoin
