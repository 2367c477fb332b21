// Materialized tries over columnar relations, stored as CSR level
// arrays: level d keeps a dense array of distinct keys (given the bound
// prefix) plus 32-bit child offsets into level d+1 — classic
// compressed-sparse-row nesting. Opening a level is O(1): its key span
// is a slice of the level array. Every array is allocated once at its
// exact length (a counting pass sizes the levels before they are
// filled), so a trie's heap footprint is its data and nothing else.
//
// A trie is immutable once built. An update to the relation builds a
// new trie (MultiModelDatabase::ApplyRelationDelta rebuilds every
// cached trie of the relation), so holders of the old one — session
// snapshot pins, in-flight plans — never see it change.
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
/// UINT32_MAX nodes; Build returns kResourceExhausted for larger inputs
/// rather than truncate.
class RelationTrie {
 public:
  /// Builds the CSR trie for `relation` under the attribute order given
  /// as a list of attribute names (must be exactly the relation's
  /// attributes, possibly permuted).
  static Result<RelationTrie> Build(const Relation& relation,
                                    const std::vector<std::string>& order,
                                    const TrieBuildOptions& options = {});

  /// Attribute names in trie (sorted) order.
  const std::vector<std::string>& attribute_order() const { return order_; }

  /// Number of distinct tuples (the deepest level's key count).
  size_t num_rows() const { return keys_.empty() ? 0 : keys_.back().size(); }
  int arity() const { return static_cast<int>(keys_.size()); }

  /// Creates a cursor positioned at the virtual root.
  std::unique_ptr<TrieIterator> NewIterator() const;

  /// Exact heap bytes of the level arrays (8 per key, 4 per child
  /// offset). No array carries growth slack, so this is also the sum of
  /// their sizes. The database's byte-budget trie cache charges exactly
  /// this.
  size_t ByteSizeEstimate() const;

  /// Read access to the CSR arrays (the cursor, the planner's level
  /// statistics, tests).
  const std::vector<int64_t>& level_keys(size_t d) const { return keys_[d]; }
  const std::vector<uint32_t>& child_begin(size_t d) const {
    return child_begin_[d];
  }

 private:
  RelationTrie() = default;

  std::vector<std::string> order_;
  std::vector<std::vector<int64_t>> keys_;          // one per level
  std::vector<std::vector<uint32_t>> child_begin_;  // every level but the last
};

/// Cursor over a RelationTrie. Every span points straight into the CSR
/// level array: the root span is all of keys[0], and the children of
/// key p at level d are keys[d+1] over [child_begin[d][p],
/// child_begin[d][p+1]) — Open is O(1), no copies.
class RelationTrieIterator final : public TrieIterator {
 public:
  explicit RelationTrieIterator(const RelationTrie* trie) : trie_(trie) {}

  int arity() const override { return trie_->arity(); }
  KeySpan Open(size_t parent_pos) override;
  void Up() override { --open_; }
  std::unique_ptr<TrieIterator> Clone() const override;

 private:
  const RelationTrie* trie_;
  size_t open_ = 0;  // number of open levels
};

}  // namespace xjoin

#endif  // XJOIN_RELATIONAL_TRIE_H_
