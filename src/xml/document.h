// In-memory XML document: a node arena in document (preorder) order with
// region encoding (start, end, level) — the classic labeling scheme of
// structural-join work (Al-Khalifa et al.) that decides ancestor-
// descendant relationships in O(1).
#ifndef XJOIN_XML_DOCUMENT_H_
#define XJOIN_XML_DOCUMENT_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/dictionary.h"
#include "common/status.h"

namespace xjoin {

/// Index of a node within its document; nodes are numbered in preorder,
/// so NodeId doubles as the region-encoding `start` position.
using NodeId = int32_t;
constexpr NodeId kNullNode = -1;

/// One element node. XML attributes are modeled as child elements whose
/// tag is "@name" holding the attribute value as text, which keeps the
/// twig machinery uniform.
struct XmlNode {
  int32_t tag = -1;               ///< code in XmlDocument::tag_dict()
  NodeId parent = kNullNode;
  NodeId first_child = kNullNode;
  NodeId next_sibling = kNullNode;
  NodeId subtree_end = kNullNode;  ///< largest NodeId in this subtree
  int32_t level = 0;               ///< root element has level 0
  uint32_t text_offset = 0;        ///< text: see XmlDocument::text
  uint32_t text_length = 0;        ///< its length in bytes
};

/// An XML document. Construct through XmlDocumentBuilder or ParseXml.
class XmlDocument {
 public:
  size_t num_nodes() const { return nodes_.size(); }
  const XmlNode& node(NodeId id) const {
    return nodes_[static_cast<size_t>(id)];
  }

  /// The node's text: all of its direct character data (entity and
  /// character references decoded, CDATA included) concatenated and
  /// trimmed of surrounding whitespace; empty when it has none. A view
  /// into the document's text arena, valid as long as the document.
  std::string_view text(NodeId id) const {
    const XmlNode& n = node(id);
    return std::string_view(text_.data() + n.text_offset, n.text_length);
  }

  /// The root element; kNullNode for an empty document.
  NodeId root() const { return nodes_.empty() ? kNullNode : 0; }

  /// Tag-name dictionary (codes are XmlNode::tag values).
  const Dictionary& tag_dict() const { return tag_dict_; }
  Dictionary* mutable_tag_dict() { return &tag_dict_; }

  /// Tag code for `name`, or -1 if the tag never occurs.
  int32_t LookupTag(const std::string& name) const {
    return static_cast<int32_t>(tag_dict_.Lookup(name));
  }

  /// True iff `ancestor` is a proper ancestor of `descendant` (region
  /// containment: start_a < start_d && end_d <= end_a).
  bool IsAncestor(NodeId ancestor, NodeId descendant) const {
    return ancestor < descendant &&
           descendant <= nodes_[static_cast<size_t>(ancestor)].subtree_end;
  }

  /// True iff `parent` is the parent of `child`.
  bool IsParent(NodeId parent, NodeId child) const {
    return child >= 0 && nodes_[static_cast<size_t>(child)].parent == parent;
  }

  /// All node ids with the given tag code, in document order.
  std::vector<NodeId> NodesWithTag(int32_t tag) const;

  /// Children of `id` in document order.
  std::vector<NodeId> Children(NodeId id) const;

  /// Human-readable tag of a node.
  const std::string& TagName(NodeId id) const {
    return tag_dict_.Decode(node(id).tag);
  }

  /// Structural sanity check (exhaustive; for tests): verifies parent /
  /// sibling / region-encoding consistency.
  Status Validate() const;

 private:
  friend class XmlDocumentBuilder;

  Dictionary tag_dict_;
  std::vector<XmlNode> nodes_;
  std::string text_;  // every node's text, back to back
};

/// Event-style builder: StartElement / AddText / EndElement, used by both
/// the parser and the synthetic workload generators.
class XmlDocumentBuilder {
 public:
  XmlDocumentBuilder();

  /// Opens an element; returns its NodeId.
  NodeId StartElement(std::string_view tag);

  /// Appends `text`, trimmed of surrounding whitespace, to the currently
  /// open element. Whitespace-only text is ignored; multiple chunks are
  /// concatenated with no separator.
  void AddText(std::string_view text);

  /// Convenience: StartElement + AddText + EndElement.
  NodeId AddLeaf(std::string_view tag, std::string_view text);

  /// Closes the innermost open element.
  Status EndElement();

  /// Number of currently open elements.
  size_t open_depth() const { return stack_.size(); }

  /// Finalizes the document; fails if elements remain open or the
  /// document is empty or has trailing siblings of the root.
  Result<XmlDocument> Finish();

 private:
  XmlDocument doc_;
  std::vector<NodeId> stack_;
  std::vector<NodeId> last_child_;  // parallel to stack_

  /// Codes of the tags seen so far, keyed by views into tag_dict_: a
  /// tag is interned once, not under the dictionary's lock per element.
  std::unordered_map<std::string_view, int32_t> tag_codes_;
  bool root_done_ = false;
};

}  // namespace xjoin

#endif  // XJOIN_XML_DOCUMENT_H_
