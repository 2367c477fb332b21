#include "relational/trie.h"

#include <algorithm>
#include <map>
#include <tuple>
#include <utility>

#include "common/executor.h"
#include "common/logging.h"

namespace xjoin {

namespace {

size_t LowerBoundRange(const std::vector<int64_t>& col, size_t lo, size_t hi,
                       int64_t key) {
  return static_cast<size_t>(
      std::lower_bound(col.begin() + static_cast<ptrdiff_t>(lo),
                       col.begin() + static_cast<ptrdiff_t>(hi), key) -
      col.begin());
}

}  // namespace

// A minimal non-owning view so file-local helpers can walk the private
// Core without befriending every free function.
struct RelationTrieCoreView {
  const std::vector<std::vector<int64_t>>* keys;
  const std::vector<std::vector<uint32_t>>* child_begin;
};

namespace {

// Child offsets are 32-bit, so every level below the root (the levels
// the offsets index) holds at most this many nodes.
constexpr size_t kMaxLevelNodes = UINT32_MAX;

// Assembles the CSR level arrays from lexicographically sorted columnar
// rows (duplicates allowed — they fold away): diff[i] is the first level
// where sorted row i differs from row i-1, then level d gets one node
// per row whose first difference is at or above d. A counting pass over
// diff sizes every level before it is filled, so each array is
// allocated once at exactly its length. Shared by Build (after the
// radix sort) and by delta compaction (whose merge output is already
// sorted, so compaction never re-sorts). Fails, writing nothing, when a
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
  auto core = std::make_shared<Core>();
  core->keys.resize(k);
  core->child_begin.resize(k > 0 ? k - 1 : 0);
  for (auto& cb : core->child_begin) cb.push_back(0);
  trie.core_ = core;
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
  XJ_RETURN_NOT_OK(AssembleCsrLevels(sorted, n, k, num_threads, &core->keys,
                                     &core->child_begin));

  MetricsAdd(options.metrics, "trie.builds", 1);
  MetricsAdd(options.metrics, "trie.build_micros", timer.ElapsedMicros());
  return trie;
}

namespace {

// Depth-first enumeration of a Core's (base) tuples in lexicographic
// order; O(total trie nodes), recursion depth = arity.
template <typename Fn>
void WalkBaseSubtree(const RelationTrieCoreView& view, size_t d, size_t lo,
                     size_t hi, Tuple* tuple, const Fn& fn) {
  const size_t k = view.keys->size();
  for (size_t i = lo; i < hi; ++i) {
    (*tuple)[d] = (*view.keys)[d][i];
    if (d + 1 == k) {
      fn(*tuple);
    } else {
      WalkBaseSubtree(view, d + 1, (*view.child_begin)[d][i],
                      (*view.child_begin)[d][i + 1], tuple, fn);
    }
  }
}

template <typename Fn>
void WalkBase(const RelationTrieCoreView& view, Fn&& fn) {
  const size_t k = view.keys->size();
  if (k == 0 || (*view.keys)[0].empty()) return;
  Tuple tuple(k);
  WalkBaseSubtree(view, 0, 0, (*view.keys)[0].size(), &tuple, fn);
}

}  // namespace

bool RelationTrie::BaseContains(const Tuple& tuple) const {
  const size_t k = core_->keys.size();
  size_t lo = 0;
  size_t hi = core_->keys[0].size();
  for (size_t d = 0; d < k; ++d) {
    const std::vector<int64_t>& col = core_->keys[d];
    size_t at = LowerBoundRange(col, lo, hi, tuple[d]);
    if (at >= hi || col[at] != tuple[d]) return false;
    if (d + 1 < k) {
      lo = core_->child_begin[d][at];
      hi = core_->child_begin[d][at + 1];
    }
  }
  return true;
}

Result<RelationTrie> RelationTrie::ApplyDelta(
    const std::vector<Tuple>& inserts, const std::vector<Tuple>& deletes,
    const TrieDeltaOptions& options) const {
  const size_t k = core_ == nullptr ? 0 : core_->keys.size();
  if (k == 0) {
    if (inserts.empty() && deletes.empty()) return *this;
    return Status::InvalidArgument("delta on a zero-arity trie");
  }
  for (const Tuple& t : inserts) {
    if (t.size() != k) return Status::InvalidArgument("delta tuple arity");
  }
  for (const Tuple& t : deletes) {
    if (t.size() != k) return Status::InvalidArgument("delta tuple arity");
  }

  // Pending state per tuple: +1 pending insert, -1 tombstone. Seeded
  // from the existing side-file, then the batch is classified on top —
  // deletes before inserts, so a tuple in both lists ends up present.
  std::map<Tuple, int> pending;
  if (delta_ != nullptr) {
    Tuple t(k);
    for (size_t r = 0; r < delta_->insert_rows; ++r) {
      for (size_t d = 0; d < k; ++d) t[d] = delta_->inserts[d][r];
      pending[t] = +1;
    }
    for (size_t r = 0; r < delta_->tombstone_rows; ++r) {
      for (size_t d = 0; d < k; ++d) t[d] = delta_->tombstones[d][r];
      pending[t] = -1;
    }
  }
  for (const Tuple& t : deletes) {
    auto it = pending.find(t);
    if (it != pending.end()) {
      // Deleting a pending insert cancels it; deleting an existing
      // tombstone is a no-op.
      if (it->second > 0) pending.erase(it);
    } else if (BaseContains(t)) {
      pending[t] = -1;
    }
  }
  for (const Tuple& t : inserts) {
    auto it = pending.find(t);
    if (it != pending.end()) {
      // Inserting over a tombstone resurrects the base tuple;
      // re-inserting a pending insert is a no-op.
      if (it->second < 0) pending.erase(it);
    } else if (!BaseContains(t)) {
      pending[t] = +1;
    }
  }

  MetricsAdd(options.metrics, "trie.delta_applies", 1);

  RelationTrie out;
  out.order_ = order_;
  out.core_ = core_;
  if (pending.empty()) return out;

  size_t insert_rows = 0;
  size_t tombstone_rows = 0;
  for (const auto& [tuple, sign] : pending) {
    (void)tuple;
    if (sign > 0) {
      ++insert_rows;
    } else {
      ++tombstone_rows;
    }
  }

  const size_t base = base_rows();
  const size_t threshold =
      std::max(options.compact_min_rows,
               static_cast<size_t>(options.compact_ratio *
                                   static_cast<double>(base)));
  if (!options.force_compact && insert_rows + tombstone_rows <= threshold) {
    // Stay in delta form: split the pending map (already sorted) into
    // the two columnar side-files.
    auto delta = std::make_shared<Delta>();
    delta->inserts.resize(k);
    delta->tombstones.resize(k);
    for (size_t d = 0; d < k; ++d) {
      delta->inserts[d].reserve(insert_rows);
      delta->tombstones[d].reserve(tombstone_rows);
    }
    for (const auto& [tuple, sign] : pending) {
      std::vector<std::vector<int64_t>>& side =
          sign > 0 ? delta->inserts : delta->tombstones;
      for (size_t d = 0; d < k; ++d) side[d].push_back(tuple[d]);
    }
    delta->insert_rows = insert_rows;
    delta->tombstone_rows = tombstone_rows;
    MergeLevel(*core_, *delta, 0,
               PrefixRows{0, core_->keys[0].size(), 0, insert_rows, 0,
                          tombstone_rows},
               &delta->root_keys);
    // MergeLevel grows root_keys by push_back; drop the growth slack so
    // the side-file holds (and the trie cache charges) only its keys.
    delta->root_keys.shrink_to_fit();
    out.delta_ = delta;
    return out;
  }

  // Compaction: linear merge of the sorted base enumeration with the
  // pending map into fresh sorted columns, then the shared CSR assembly
  // pass — no radix re-sort, O(base + delta).
  Timer timer;
  std::vector<std::vector<int64_t>> merged(k);
  const size_t merged_rows = base - tombstone_rows + insert_rows;
  for (auto& col : merged) col.reserve(merged_rows);
  auto emit = [&](const Tuple& t) {
    for (size_t d = 0; d < k; ++d) merged[d].push_back(t[d]);
  };
  auto pit = pending.begin();
  RelationTrieCoreView view{&core_->keys, &core_->child_begin};
  WalkBase(view, [&](const Tuple& t) {
    while (pit != pending.end() && pit->first < t) {
      if (pit->second > 0) emit(pit->first);
      ++pit;
    }
    if (pit != pending.end() && pit->first == t) {
      // Tombstone drops the base tuple; a pending insert can never
      // collide with a base tuple (classification keeps them disjoint).
      if (pit->second > 0) emit(t);
      ++pit;
      return;
    }
    emit(t);
  });
  while (pit != pending.end()) {
    if (pit->second > 0) emit(pit->first);
    ++pit;
  }

  auto core = std::make_shared<Core>();
  core->keys.resize(k);
  core->child_begin.resize(k > 0 ? k - 1 : 0);
  for (auto& cb : core->child_begin) cb.push_back(0);
  if (!merged.empty() && !merged[0].empty()) {
    XJ_RETURN_NOT_OK(AssembleCsrLevels(merged, merged[0].size(), k,
                                       /*num_threads=*/1, &core->keys,
                                       &core->child_begin));
  }
  out.core_ = core;
  MetricsAdd(options.metrics, "trie.compactions", 1);
  MetricsAdd(options.metrics, "trie.compact_micros", timer.ElapsedMicros());
  return out;
}

void RelationTrie::EnumerateTuples(std::vector<Tuple>* out) const {
  out->clear();
  const size_t k = static_cast<size_t>(arity());
  if (k == 0) return;
  std::unique_ptr<TrieIterator> it = NewIterator();
  Tuple tuple(k);
  auto walk = [&](auto&& self, size_t d, size_t parent_pos) -> void {
    KeySpan span = it->Open(parent_pos);
    for (size_t p = span.lo; p < span.hi; ++p) {
      tuple[d] = span.keys[p];
      if (d + 1 == k) {
        out->push_back(tuple);
      } else {
        self(self, d + 1, p);
      }
    }
    it->Up();
  };
  walk(walk, 0, 0);
}

size_t RelationTrie::ByteSizeEstimate() const {
  size_t bytes = 0;
  if (core_ != nullptr) {
    for (const auto& level : core_->keys) {
      bytes += level.capacity() * sizeof(int64_t);
    }
    for (const auto& level : core_->child_begin) {
      bytes += level.capacity() * sizeof(uint32_t);
    }
  }
  if (delta_ != nullptr) {
    for (const auto& col : delta_->inserts) {
      bytes += col.capacity() * sizeof(int64_t);
    }
    for (const auto& col : delta_->tombstones) {
      bytes += col.capacity() * sizeof(int64_t);
    }
    bytes += delta_->root_keys.capacity() * sizeof(int64_t);
  }
  return bytes;
}

std::unique_ptr<TrieIterator> RelationTrie::NewIterator() const {
  if (delta_ != nullptr) {
    return std::make_unique<RelationDeltaTrieIterator>(this);
  }
  return std::make_unique<RelationTrieIterator>(this);
}

RelationTrieIterator::RelationTrieIterator(const RelationTrie* trie)
    : trie_(trie) {
  XJ_DCHECK(trie->delta_ == nullptr);
}

KeySpan RelationTrieIterator::Open(size_t parent_pos) {
  XJ_DCHECK(open_ < static_cast<size_t>(trie_->arity()));
  const RelationTrie::Core& core = *trie_->core_;
  const size_t d = open_++;
  if (d == 0) return KeySpan{core.keys[0].data(), 0, core.keys[0].size()};
  const std::vector<uint32_t>& cb = core.child_begin[d - 1];
  return KeySpan{core.keys[d].data(), cb[parent_pos], cb[parent_pos + 1]};
}

std::unique_ptr<TrieIterator> RelationTrieIterator::Clone() const {
  return std::make_unique<RelationTrieIterator>(trie_);
}

RelationDeltaTrieIterator::RelationDeltaTrieIterator(const RelationTrie* trie)
    : trie_(trie),
      core_(trie->core_.get()),
      delta_(trie->delta_.get()),
      frames_(static_cast<size_t>(trie->arity())) {
  XJ_DCHECK(delta_ != nullptr);
}

namespace {

// Base leaves under node `node` of level `d` (cascaded child ranges,
// O(arity)): a base key dies only when its tombstone count equals this.
size_t SubtreeLeafCount(const std::vector<std::vector<uint32_t>>& child_begin,
                        size_t d, size_t node) {
  size_t lo = node;
  size_t hi = node + 1;
  for (size_t dd = d; dd < child_begin.size(); ++dd) {
    lo = child_begin[dd][lo];
    hi = child_begin[dd][hi];
  }
  return hi - lo;
}

// [first, last) of `key` in the sorted run col[lo, hi).
std::pair<size_t, size_t> EqualRange(const std::vector<int64_t>& col,
                                     size_t lo, size_t hi, int64_t key) {
  size_t first = LowerBoundRange(col, lo, hi, key);
  size_t last = first;
  while (last < hi && col[last] == key) ++last;
  return {first, last};
}

}  // namespace

void RelationTrie::MergeLevel(const Core& core, const Delta& delta, size_t d,
                              const PrefixRows& rows,
                              std::vector<int64_t>* keys) {
  const std::vector<int64_t>& base = core.keys[d];
  const std::vector<int64_t>& icol = delta.inserts[d];
  const std::vector<int64_t>& tcol = delta.tombstones[d];
  keys->clear();
  size_t b = rows.blo;
  size_t i = rows.ilo;
  size_t t = rows.tlo;
  while (b < rows.bhi || i < rows.ihi) {
    const bool has_base = b < rows.bhi;
    const bool has_insert = i < rows.ihi;
    const bool from_base = has_base && (!has_insert || base[b] <= icol[i]);
    const bool from_insert = has_insert && (!has_base || icol[i] <= base[b]);
    const int64_t key = from_base ? base[b] : icol[i];
    bool alive = from_insert;
    if (from_base) {
      while (t < rows.thi && tcol[t] < key) ++t;
      size_t t_end = t;
      while (t_end < rows.thi && tcol[t_end] == key) ++t_end;
      alive = alive || t_end == t ||
              t_end - t < SubtreeLeafCount(core.child_begin, d, b);
      t = t_end;
      ++b;
    }
    while (i < rows.ihi && icol[i] == key) ++i;
    if (alive) keys->push_back(key);
  }
}

RelationTrie::PrefixRows RelationTrie::ChildRows(const Core& core,
                                                 const Delta& delta, size_t d,
                                                 const PrefixRows& rows,
                                                 int64_t key) {
  PrefixRows child;
  std::tie(child.ilo, child.ihi) =
      EqualRange(delta.inserts[d], rows.ilo, rows.ihi, key);
  const std::vector<int64_t>& base = core.keys[d];
  const size_t b = LowerBoundRange(base, rows.blo, rows.bhi, key);
  if (b == rows.bhi || base[b] != key) return child;  // inserts only
  auto [tlo, thi] = EqualRange(delta.tombstones[d], rows.tlo, rows.thi, key);
  // A fully tombstoned base subtree contributes no children.
  if (thi - tlo == SubtreeLeafCount(core.child_begin, d, b)) return child;
  child.blo = core.child_begin[d][b];
  child.bhi = core.child_begin[d][b + 1];
  child.tlo = tlo;
  child.thi = thi;
  return child;
}

KeySpan RelationDeltaTrieIterator::Open(size_t parent_pos) {
  XJ_DCHECK(open_ < frames_.size());
  const size_t d = open_++;
  Frame& f = frames_[d];
  if (d == 0) {
    f.rows = RelationTrie::PrefixRows{0, core_->keys[0].size(),
                                      0, delta_->insert_rows,
                                      0, delta_->tombstone_rows};
    f.span = KeySpan{delta_->root_keys.data(), 0, delta_->root_keys.size()};
    return f.span;
  }
  const Frame& parent = frames_[d - 1];
  if (f.stamp != 0 && f.parent_pos == parent_pos &&
      f.parent_stamp == parent.stamp) {
    return f.span;
  }
  f.stamp = ++next_stamp_;
  f.parent_pos = parent_pos;
  f.parent_stamp = parent.stamp;
  if (!parent.rows.has_delta()) {
    // Under a delta-free prefix the span is a plain base slice whose
    // positions index the base array directly.
    const std::vector<uint32_t>& cb = core_->child_begin[d - 1];
    f.rows = RelationTrie::PrefixRows{cb[parent_pos], cb[parent_pos + 1]};
  } else {
    f.rows = RelationTrie::ChildRows(*core_, *delta_, d - 1, parent.rows,
                                     parent.span.keys[parent_pos]);
  }
  if (f.rows.has_delta()) {
    RelationTrie::MergeLevel(*core_, *delta_, d, f.rows, &f.keys);
    f.span = KeySpan{f.keys.data(), 0, f.keys.size()};
  } else {
    f.span = KeySpan{core_->keys[d].data(), f.rows.blo, f.rows.bhi};
  }
  return f.span;
}

std::unique_ptr<TrieIterator> RelationDeltaTrieIterator::Clone() const {
  return std::make_unique<RelationDeltaTrieIterator>(trie_);
}

}  // namespace xjoin
