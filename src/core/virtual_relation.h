// XML path relations. For a root-leaf path q1/q2/.../qk of a sub-twig,
// the logical relation is
//     { (val(x1), ..., val(xk)) : x(i+1) child of x(i), tag(xi)=tag(qi) }.
// The paper's XJoin "considers P-C relations as relational tables for
// the size bound, but does not physically transform them" — LazyPathTrie
// realizes exactly that: a TrieIterator that navigates the document in
// place, grouping candidate nodes by join value level by level.
// It is the engine's only path input. PathRelation::Materialize flattens
// the same relation into a Relation for exact size-bound inputs and for
// test oracles.
#ifndef XJOIN_CORE_VIRTUAL_RELATION_H_
#define XJOIN_CORE_VIRTUAL_RELATION_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "core/decompose.h"
#include "relational/relation.h"
#include "relational/trie_iterator.h"
#include "xml/node_index.h"
#include "xml/twig.h"

namespace xjoin {

/// Static description of one path relation over a document.
class PathRelation {
 public:
  /// Binds a decomposed path to a document. Fails if a tag on the path is
  /// "*" (wildcards are not joinable) — unknown tags are fine and yield
  /// an empty relation.
  static Result<PathRelation> Make(const Twig& twig, const TwigPath& path,
                                   const NodeIndex* index);

  /// Attribute names, root first (the trie's level order).
  const std::vector<std::string>& attributes() const { return attributes_; }

  /// Tag codes per level (-1 for a tag absent from the document).
  const std::vector<int32_t>& tags() const { return tags_; }

  const NodeIndex& index() const { return *index_; }
  int arity() const { return static_cast<int>(attributes_.size()); }

  /// A lazy cursor over the path trie (no materialization).
  std::unique_ptr<TrieIterator> NewLazyIterator() const;

  /// Flattens to value tuples (set semantics). O(#chains).
  Result<Relation> Materialize() const;

  /// Number of P-C chains matching the path (duplicate value tuples
  /// counted), by dynamic programming over the document — an upper bound
  /// on the relation's cardinality, computed without enumeration.
  int64_t CountChains() const;

 private:
  PathRelation() = default;

  std::vector<std::string> attributes_;
  std::vector<int32_t> tags_;
  const NodeIndex* index_ = nullptr;
};

/// TrieIterator over a PathRelation that walks the document lazily.
/// Each open level keeps the value-sorted (value, node) candidates of
/// the parent's value group plus their distinct values and per-value
/// group offsets; Open(parent_pos) gathers the tag-matching children of
/// the nodes in group `parent_pos` of the parent level.
class LazyPathTrieIterator final : public TrieIterator {
 public:
  explicit LazyPathTrieIterator(const PathRelation* relation);

  int arity() const override { return relation_->arity(); }
  KeySpan Open(size_t parent_pos) override;
  void Up() override { --open_; }
  std::unique_ptr<TrieIterator> Clone() const override;

 private:
  struct Frame {
    std::vector<ValueNode> owned;        // gathered children (below root)
    const ValueNode* entries = nullptr;  // sorted by (value, node)
    std::vector<int64_t> keys;           // distinct values of `entries`
    std::vector<size_t> group;  // key i owns [group[i], group[i+1])
    // Memo: the frame was gathered under key `parent_pos` of the parent
    // frame as of the parent's `parent_stamp`. Re-opening the same
    // children (the root under every outer binding, or an input that
    // skips an attribute of the global order) returns the span as is.
    uint64_t stamp = 0;  // 0 = never built
    size_t parent_pos = 0;
    uint64_t parent_stamp = 0;
  };

  const PathRelation* relation_;
  size_t open_ = 0;            // number of open levels
  std::vector<Frame> frames_;  // one per level, buffers reused
  uint64_t next_stamp_ = 0;
};

}  // namespace xjoin

#endif  // XJOIN_CORE_VIRTUAL_RELATION_H_
