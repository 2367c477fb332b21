// Materialized tries over columnar relations, stored as CSR level
// arrays: level d keeps a dense array of distinct keys (given the bound
// prefix) plus 32-bit child offsets into level d+1 — classic
// compressed-sparse-row nesting. Opening a level is O(1): its key span
// is a slice of the level array. Every array is allocated once at its
// exact length (a counting pass sizes the levels before they are
// filled), so a trie's heap footprint is its data and nothing else.
//
// Incremental maintenance: the CSR arrays are an immutable shared base
// (`Core`, behind a shared_ptr), and a trie may additionally carry a
// small sorted delta side-file (`Delta`: pending insert rows plus
// tombstones over base rows). ApplyDelta produces a NEW trie value that
// shares the base arrays — callers holding the old trie (session
// snapshot pins, in-flight plans) are never mutated under them — and
// folds the delta into a fresh Core (amortized compaction) once it
// exceeds a size ratio, so single-tuple updates never pay a full radix
// rebuild.
#ifndef XJOIN_RELATIONAL_TRIE_H_
#define XJOIN_RELATIONAL_TRIE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/metrics.h"
#include "common/status.h"
#include "relational/relation.h"
#include "relational/trie_iterator.h"

namespace xjoin {

/// Knobs for RelationTrie::Build.
struct TrieBuildOptions {
  /// Worker threads for the per-level CSR construction (the sort stays
  /// serial — it is the LSD radix fast path). <= 1 builds fully inline.
  int num_threads = 1;
  /// Nullable counters: "trie.builds", "trie.build_micros",
  /// "trie.radix_sorts", "trie.std_sorts".
  Metrics* metrics = nullptr;
};

/// Knobs for RelationTrie::ApplyDelta.
struct TrieDeltaOptions {
  /// Fold the pending delta into fresh level arrays once
  /// inserts + tombstones exceed max(compact_min_rows,
  /// compact_ratio * base leaf count). Compaction is a linear merge of
  /// the (already sorted) base enumeration with the delta — no radix
  /// re-sort — so the amortized cost per updated tuple stays O(k).
  double compact_ratio = 0.25;
  size_t compact_min_rows = 64;
  /// Compact unconditionally (tests; also used by benchmarks to pin the
  /// compaction boundary).
  bool force_compact = false;
  /// Nullable counters: "trie.delta_applies", "trie.compactions",
  /// "trie.compact_micros".
  Metrics* metrics = nullptr;
};

/// A relation deduplicated and sorted lexicographically under an
/// attribute permutation, flattened into one CSR level per attribute:
///
///   keys[d]        — all level-d trie nodes' keys, parent-major
///   child_begin[d] — node i at level d owns keys[d+1] entries
///                    [child_begin[d][i], child_begin[d][i+1]); 32-bit
///
/// Build sorts dictionary codes with an LSD radix sort (std::sort below
/// a small-input threshold), counts each level's nodes from the sorted
/// rows' first-difference levels, then fills the exactly sized per-level
/// arrays in one pass over the sorted columns — duplicate rows fold away
/// during that pass, no re-reads of the unsorted relation.
///
/// Because offsets are 32-bit, every level below the root holds at most
/// UINT32_MAX nodes; Build and compacting ApplyDelta return
/// kResourceExhausted for larger inputs rather than truncate.
///
/// The logical contents of a trie are (base \ tombstones) ∪ inserts;
/// the delta is empty for freshly built or just-compacted tries, and
/// iterators merge it on the fly otherwise (see
/// RelationDeltaTrieIterator).
class RelationTrie {
 public:
  /// Builds the CSR trie for `relation` under the attribute order given
  /// as a list of attribute names (must be exactly the relation's
  /// attributes, possibly permuted).
  static Result<RelationTrie> Build(const Relation& relation,
                                    const std::vector<std::string>& order,
                                    const TrieBuildOptions& options = {});

  /// Returns a new trie whose logical contents apply `deletes` then
  /// `inserts` (tuples in trie attribute order) on top of this trie.
  /// Deleting an absent tuple and inserting a present one are no-ops,
  /// so replaying the same batch is idempotent. The result shares this
  /// trie's base level arrays (copy-on-swap: `*this` is untouched)
  /// unless the merged pending delta crossed the compaction threshold,
  /// in which case it carries a freshly assembled Core and no delta.
  Result<RelationTrie> ApplyDelta(const std::vector<Tuple>& inserts,
                                  const std::vector<Tuple>& deletes,
                                  const TrieDeltaOptions& options = {}) const;

  /// Attribute names in trie (sorted) order.
  const std::vector<std::string>& attribute_order() const { return order_; }

  /// Number of distinct tuples: base leaves minus tombstones plus
  /// pending inserts.
  size_t num_rows() const {
    return base_rows() + delta_insert_rows() - delta_tombstone_rows();
  }
  int arity() const {
    return core_ == nullptr ? 0 : static_cast<int>(core_->keys.size());
  }

  /// True when a pending (not yet compacted) delta side-file is
  /// attached; NewIterator returns the merging cursor in that case.
  bool has_delta() const { return delta_ != nullptr; }
  size_t delta_insert_rows() const {
    return delta_ == nullptr ? 0 : delta_->insert_rows;
  }
  size_t delta_tombstone_rows() const {
    return delta_ == nullptr ? 0 : delta_->tombstone_rows;
  }

  /// True when `other` shares this trie's base level arrays — i.e. it
  /// was derived from the same Core by ApplyDelta without compaction.
  bool SharesBaseWith(const RelationTrie& other) const {
    return core_ != nullptr && core_ == other.core_;
  }

  /// Upper bound on the distinct keys at level `d` (base keys plus
  /// pending insert rows); the planner's shard/lead estimates use this
  /// instead of level_keys so delta tries plan sensibly.
  size_t LevelKeyEstimate(size_t d) const {
    size_t estimate = core_ == nullptr ? 0 : core_->keys[d].size();
    if (delta_ != nullptr) estimate += delta_->insert_rows;
    return estimate;
  }

  /// Appends the logical contents (delta merged) in lexicographic trie
  /// order. O(num_rows * arity); tests and compaction debugging.
  void EnumerateTuples(std::vector<Tuple>* out) const;

  /// Creates a cursor positioned at the virtual root.
  std::unique_ptr<TrieIterator> NewIterator() const;

  /// Exact heap bytes of the level arrays (8 per key, 4 per child
  /// offset) plus any delta side-file (its insert and tombstone columns
  /// and merged root keys). No array carries growth slack, so this is
  /// also the sum of their sizes. The database's byte-budget trie cache
  /// charges exactly this.
  size_t ByteSizeEstimate() const;

  /// Direct read access to the BASE CSR arrays (tests, debugging);
  /// pending delta rows are not reflected here.
  const std::vector<int64_t>& level_keys(size_t d) const {
    return core_->keys[d];
  }
  const std::vector<uint32_t>& child_begin(size_t d) const {
    return core_->child_begin[d];
  }

 private:
  RelationTrie() = default;

  friend class RelationTrieIterator;
  friend class RelationDeltaTrieIterator;

  /// The immutable CSR level arrays, each exactly sized. Shared (never
  /// mutated) across every trie value derived by ApplyDelta without
  /// compaction, and across iterator clones on other threads.
  struct Core {
    std::vector<std::vector<int64_t>> keys;          // one per level
    std::vector<std::vector<uint32_t>> child_begin;  // every level but the last
  };

  /// The sorted delta side-file: columnar tuple rows in trie order,
  /// lexicographically sorted and distinct within each side. Invariants:
  /// inserts ∩ base = ∅, tombstones ⊆ base, inserts ∩ tombstones = ∅
  /// (ApplyDelta's classification enforces all three).
  struct Delta {
    std::vector<std::vector<int64_t>> inserts;     // k columns
    std::vector<std::vector<int64_t>> tombstones;  // k columns
    size_t insert_rows = 0;
    size_t tombstone_rows = 0;
    /// Level 0 merged once per trie value (MergeLevel): every delta row
    /// lives under it, and every query opens it.
    std::vector<int64_t> root_keys;
  };

  /// The rows of one bound prefix at one level: its base child range
  /// [blo, bhi) and its insert and tombstone row runs.
  struct PrefixRows {
    size_t blo = 0, bhi = 0;
    size_t ilo = 0, ihi = 0;
    size_t tlo = 0, thi = 0;

    bool has_delta() const { return ilo != ihi || tlo != thi; }
  };

  /// Merges level `d` of `rows` into its sorted distinct keys: base and
  /// insert keys, minus base keys whose whole subtree is tombstoned.
  static void MergeLevel(const Core& core, const Delta& delta, size_t d,
                         const PrefixRows& rows, std::vector<int64_t>* keys);
  /// The rows one level down under `key` of level `d` of `rows`.
  static PrefixRows ChildRows(const Core& core, const Delta& delta, size_t d,
                              const PrefixRows& rows, int64_t key);

  size_t base_rows() const {
    return core_ == nullptr || core_->keys.empty() ? 0
                                                   : core_->keys.back().size();
  }
  bool BaseContains(const Tuple& tuple) const;

  std::vector<std::string> order_;
  std::shared_ptr<const Core> core_;
  std::shared_ptr<const Delta> delta_;  // null == no pending delta
};

/// Cursor over a RelationTrie with no pending delta. Every span points
/// straight into the CSR level array: the root span is all of keys[0],
/// and the children of key p at level d are keys[d+1] over
/// [child_begin[d][p], child_begin[d][p+1]) — Open is O(1), no copies.
class RelationTrieIterator final : public TrieIterator {
 public:
  explicit RelationTrieIterator(const RelationTrie* trie);

  int arity() const override { return trie_->arity(); }
  KeySpan Open(size_t parent_pos) override;
  void Up() override { --open_; }
  std::unique_ptr<TrieIterator> Clone() const override;

 private:
  const RelationTrie* trie_;
  size_t open_ = 0;  // number of open levels
};

/// Cursor over a RelationTrie with a pending delta side-file. Opening a
/// level below the root locates the bound prefix's rows — base child
/// range, pending insert rows, tombstone rows — by binary search under
/// the parent's rows, then merges them into a frame-owned key array
/// (RelationTrie::MergeLevel); the root was merged once by ApplyDelta.
/// A prefix with no delta rows is served straight from the base array,
/// like the plain CSR cursor.
class RelationDeltaTrieIterator final : public TrieIterator {
 public:
  explicit RelationDeltaTrieIterator(const RelationTrie* trie);

  int arity() const override { return trie_->arity(); }
  KeySpan Open(size_t parent_pos) override;
  void Up() override { --open_; }
  std::unique_ptr<TrieIterator> Clone() const override;

 private:
  struct Frame {
    RelationTrie::PrefixRows rows;  // the bound prefix's rows
    std::vector<int64_t> keys;      // merged keys (when rows has delta)
    KeySpan span;
    // Memo: the frame was merged under key `parent_pos` of the parent
    // frame as of the parent's `parent_stamp`. Re-opening the same
    // children (an input skipping an attribute of the global order, or
    // the root under every outer binding) returns the span unmerged.
    uint64_t stamp = 0;  // 0 = never built
    size_t parent_pos = 0;
    uint64_t parent_stamp = 0;
  };

  const RelationTrie* trie_;
  const RelationTrie::Core* core_;
  const RelationTrie::Delta* delta_;
  size_t open_ = 0;            // number of open levels
  std::vector<Frame> frames_;  // one per level, buffers reused
  uint64_t next_stamp_ = 0;
};

}  // namespace xjoin

#endif  // XJOIN_RELATIONAL_TRIE_H_
