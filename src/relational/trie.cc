#include "relational/trie.h"

#include <algorithm>

#include "common/executor.h"
#include "common/logging.h"

namespace xjoin {

namespace {

// Child offsets are 32-bit, so every level below the root (the levels
// the offsets index) holds at most this many nodes.
constexpr size_t kMaxLevelNodes = UINT32_MAX;

// Assembles the CSR level arrays from lexicographically sorted columnar
// rows (duplicates allowed — they fold away): diff[i] is the first level
// where sorted row i differs from row i-1, then level d gets one node
// per row whose first difference is at or above d. A counting pass over
// diff sizes every level before it is filled, so each array is
// allocated once at exactly its length. Fails, writing nothing, when a
// level below the root would not fit 32-bit offsets.
Status AssembleCsrLevels(const std::vector<std::vector<int64_t>>& sorted,
                         size_t n, size_t k, int num_threads,
                         std::vector<std::vector<int64_t>>* keys,
                         std::vector<std::vector<uint32_t>>* child_begin) {
  std::vector<uint32_t> diff(n);
  Executor* executor = Executor::Default();
  executor->ParallelFor(num_threads, n, /*grain=*/4096, [&](size_t i) {
    if (i == 0) {
      diff[0] = 0;
      return;
    }
    uint32_t level = 0;
    while (level < k && sorted[level][i] == sorted[level][i - 1]) ++level;
    diff[i] = level;
  });

  // nodes[d] = rows whose first difference is at level <= d = the node
  // count of level d (nondecreasing in d; nodes[k] counts duplicates).
  std::vector<size_t> nodes(k + 1, 0);
  for (uint32_t level : diff) ++nodes[level];
  for (size_t d = 1; d <= k; ++d) nodes[d] += nodes[d - 1];
  if (k > 1 && nodes[k - 1] > kMaxLevelNodes) {
    return Status::ResourceExhausted(
        "trie level of " + std::to_string(nodes[k - 1]) +
        " nodes exceeds the 32-bit child offset limit");
  }

  executor->ParallelFor(num_threads, k, /*grain=*/1, [&](size_t d) {
    std::vector<int64_t>& level_keys = (*keys)[d];
    const std::vector<int64_t>& col = sorted[d];
    level_keys.reserve(nodes[d]);
    if (d + 1 < k) {
      std::vector<uint32_t>& cb = (*child_begin)[d];
      cb.clear();
      cb.reserve(nodes[d] + 1);
      uint32_t children = 0;
      for (size_t i = 0; i < n; ++i) {
        if (diff[i] <= d) {
          cb.push_back(children);
          level_keys.push_back(col[i]);
        }
        if (diff[i] <= d + 1) ++children;
      }
      cb.push_back(children);
    } else {
      for (size_t i = 0; i < n; ++i) {
        if (diff[i] <= d) level_keys.push_back(col[i]);
      }
    }
  });
  return Status::OK();
}

}  // namespace

Result<RelationTrie> RelationTrie::Build(const Relation& relation,
                                         const std::vector<std::string>& order,
                                         const TrieBuildOptions& options) {
  if (order.size() != relation.schema().size()) {
    return Status::InvalidArgument("trie order arity mismatch");
  }
  std::vector<size_t> perm;
  perm.reserve(order.size());
  for (const auto& name : order) {
    int idx = relation.schema().IndexOf(name);
    if (idx < 0) {
      return Status::InvalidArgument("trie order names unknown attribute: " +
                                     name);
    }
    perm.push_back(static_cast<size_t>(idx));
  }
  // Reject permutations with repeats.
  {
    std::vector<size_t> copy = perm;
    std::sort(copy.begin(), copy.end());
    for (size_t i = 0; i + 1 < copy.size(); ++i) {
      if (copy[i] == copy[i + 1]) {
        return Status::InvalidArgument("trie order repeats an attribute");
      }
    }
  }

  Timer timer;
  const size_t n = relation.num_rows();
  const size_t k = order.size();
  const int num_threads = std::max(1, options.num_threads);

  RelationTrie trie;
  trie.order_ = order;
  trie.keys_.resize(k);
  trie.child_begin_.resize(k > 0 ? k - 1 : 0);
  for (auto& cb : trie.child_begin_) cb.push_back(0);
  if (n == 0 || k == 0) return trie;

  // 1. Reference the columns in trie order — the relation is columnar,
  // so no copies are needed until the sorted materialization below.
  std::vector<const std::vector<int64_t>*> cols(k);
  for (size_t c = 0; c < k; ++c) cols[c] = &relation.column(perm[c]);

  // 2. Sort the row permutation lexicographically (radix over the
  // columns for all but tiny inputs; see SortRowsLexicographically).
  std::vector<size_t> rows;
  if (SortRowsLexicographically(cols, &rows)) {
    MetricsAdd(options.metrics, "trie.radix_sorts", 1);
  } else {
    MetricsAdd(options.metrics, "trie.std_sorts", 1);
  }

  // 3. Materialize the sorted columns (parallel per column).
  std::vector<std::vector<int64_t>> sorted(k);
  Executor* executor = Executor::Default();
  executor->ParallelFor(num_threads, k, /*grain=*/1, [&](size_t c) {
    const std::vector<int64_t>& col = *cols[c];
    sorted[c].resize(n);
    for (size_t i = 0; i < n; ++i) sorted[c][i] = col[rows[i]];
  });

  // 4+5. Dedup + per-level CSR assembly over the sorted columns.
  XJ_RETURN_NOT_OK(AssembleCsrLevels(sorted, n, k, num_threads, &trie.keys_,
                                     &trie.child_begin_));

  MetricsAdd(options.metrics, "trie.builds", 1);
  MetricsAdd(options.metrics, "trie.build_micros", timer.ElapsedMicros());
  return trie;
}

size_t RelationTrie::ByteSizeEstimate() const {
  size_t bytes = 0;
  for (const auto& level : keys_) bytes += level.capacity() * sizeof(int64_t);
  for (const auto& level : child_begin_) {
    bytes += level.capacity() * sizeof(uint32_t);
  }
  return bytes;
}

std::unique_ptr<TrieIterator> RelationTrie::NewIterator() const {
  return std::make_unique<RelationTrieIterator>(this);
}

KeySpan RelationTrieIterator::Open(size_t parent_pos) {
  XJ_DCHECK(open_ < static_cast<size_t>(trie_->arity()));
  const size_t d = open_++;
  const std::vector<int64_t>& keys = trie_->level_keys(d);
  if (d == 0) return KeySpan{keys.data(), 0, keys.size()};
  const std::vector<uint32_t>& cb = trie_->child_begin(d - 1);
  return KeySpan{keys.data(), cb[parent_pos], cb[parent_pos + 1]};
}

std::unique_ptr<TrieIterator> RelationTrieIterator::Clone() const {
  return std::make_unique<RelationTrieIterator>(trie_);
}

}  // namespace xjoin
