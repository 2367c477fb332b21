// NodeIndex: per-document access structures shared by the twig-join
// algorithms and the multi-model engine. It assigns every node a *join
// value code* in the same dictionary the relational side uses, and keeps
// per-tag node streams (document order, for TwigStack) and per-tag
// value-sorted lists (for trie-style enumeration).
#ifndef XJOIN_XML_NODE_INDEX_H_
#define XJOIN_XML_NODE_INDEX_H_

#include <cstddef>
#include <cstdint>
#include <string_view>
#include <vector>

#include "common/dictionary.h"
#include "common/status.h"
#include "xml/document.h"

namespace xjoin {

/// How a matched node's join value is derived (DESIGN.md §2).
///
/// A synthetic value is the string "\x1F<scope>:<id>": an invisible
/// U+001F, the index's scope (the registered document name inside a
/// MultiModelDatabase, "node" by default), a colon and the node's
/// preorder id. Like text, it is a real dictionary entry, interned in
/// preorder with the other node values (bulk ingest keeps these strings
/// and their codes), and a result cell holding one prints exactly that,
/// e.g. "\x1Finvoices:7". Distinct scopes keep node i of two documents
/// apart, and the same scope and document give the same strings, so
/// re-indexing a document adds no dictionary entries. ParseXml rejects
/// U+001F in text and attribute values, so parsed text never spells a
/// synthetic value; a document built through XmlDocumentBuilder must
/// keep U+001F out of its text too, or that text shares the code.
enum class ValuePolicy : uint8_t {
  /// Text content when the node has any, otherwise the node's synthetic
  /// value. Default; matches the paper's Figure 1 where value-carrying
  /// elements join with relational columns.
  kTextOrNodeId,
  /// Always the synthetic value; turns every value join into a
  /// node-identity join (useful as an exact structural oracle).
  kNodeIdAlways,
};

/// A (value, node) pair; lists are sorted by (value, node).
struct ValueNode {
  int64_t value;
  NodeId node;
  bool operator==(const ValueNode& o) const {
    return value == o.value && node == o.node;
  }
};

/// A borrowed run of (value, node) pairs inside one of the index's
/// lists; valid as long as the index.
struct ValueNodeSpan {
  const ValueNode* first = nullptr;
  const ValueNode* last = nullptr;

  const ValueNode* begin() const { return first; }
  const ValueNode* end() const { return last; }
  size_t size() const { return static_cast<size_t>(last - first); }
  bool empty() const { return first == last; }
};

/// Immutable index over one document. The dictionary is shared with the
/// relations' codes (one per database) so values agree across models.
class NodeIndex {
 public:
  /// Builds the index, interning node values into `dict`. Documents that
  /// share `dict` need distinct `scope`s (see ValuePolicy).
  static NodeIndex Build(const XmlDocument* doc, Dictionary* dict,
                         ValuePolicy policy = ValuePolicy::kTextOrNodeId,
                         std::string_view scope = "node");

  const XmlDocument& doc() const { return *doc_; }
  ValuePolicy policy() const { return policy_; }

  /// Join value code of a node.
  int64_t ValueOf(NodeId id) const { return values_[static_cast<size_t>(id)]; }

  /// Nodes with tag code `tag` in document order; empty for unknown tags.
  const std::vector<NodeId>& NodesByTag(int32_t tag) const;

  /// (value, node) pairs for tag code `tag`, sorted by value then node.
  const std::vector<ValueNode>& ValueSortedNodes(int32_t tag) const;

  /// Children of `parent` with tag code `tag`, as (value, node) pairs
  /// sorted by value then node. Computed on the fly (the lazy path trie's
  /// workhorse).
  std::vector<ValueNode> ChildValues(NodeId parent, int32_t tag) const;

  /// Descendants of `ancestor` with tag code `tag`, value-sorted.
  /// Uses the region encoding over the per-tag document-order stream.
  std::vector<ValueNode> DescendantValues(NodeId ancestor, int32_t tag) const;

  /// All nodes whose join value is `value` and tag is `tag`: the
  /// equal-value slice of ValueSortedNodes(tag), so its nodes ascend by
  /// NodeId. Borrowed from the index; nothing is copied.
  ValueNodeSpan NodesByTagValue(int32_t tag, int64_t value) const;

  /// True when no two nodes with tag code `tag` share a join value, so a
  /// (tag, value) pair names at most one node: a value -> node key.
  /// Always true under kNodeIdAlways, and for unknown tags.
  bool ValuesUnique(int32_t tag) const {
    return tag < 0 || static_cast<size_t>(tag) >= values_unique_.size() ||
           values_unique_[static_cast<size_t>(tag)] != 0;
  }

 private:
  NodeIndex() = default;

  const XmlDocument* doc_ = nullptr;
  ValuePolicy policy_ = ValuePolicy::kTextOrNodeId;
  std::vector<int64_t> values_;                      // by NodeId
  std::vector<std::vector<NodeId>> by_tag_;          // by tag code
  std::vector<std::vector<ValueNode>> by_tag_value_; // by tag code
  std::vector<uint8_t> values_unique_;               // by tag code
  std::vector<NodeId> empty_nodes_;
  std::vector<ValueNode> empty_value_nodes_;
};

}  // namespace xjoin

#endif  // XJOIN_XML_NODE_INDEX_H_
