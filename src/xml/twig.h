// Twig pattern queries: the XML query model of the paper. A twig is a
// small tree of query nodes; every edge is parent-child (P-C, '/') or
// ancestor-descendant (A-D, '//'). Each query node carries a tag to
// match and an attribute name (unique within the twig) under which its
// matched value joins with the rest of the multi-model query.
#ifndef XJOIN_XML_TWIG_H_
#define XJOIN_XML_TWIG_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"

namespace xjoin {

/// Edge axis between a twig node and its parent.
enum class TwigAxis : uint8_t {
  kChild,       ///< '/'  — parent-child
  kDescendant,  ///< '//' — ancestor-descendant
};

/// Index of a query node within its twig.
using TwigNodeId = int32_t;
constexpr TwigNodeId kNullTwigNode = -1;

/// One query node.
struct TwigNode {
  std::string tag;        ///< element tag to match ("*" matches any tag)
  std::string attribute;  ///< join attribute name (defaults to tag)
  TwigAxis axis = TwigAxis::kChild;  ///< relationship to parent (root: ignored)
  TwigNodeId parent = kNullTwigNode;
  std::vector<TwigNodeId> children;
};

/// A twig pattern. Node 0 is the root. Construct via Twig::Parse or
/// TwigBuilder.
class Twig {
 public:
  /// Parses an XPath-like pattern:
  ///
  ///   pattern  := ['/' | '//'] step (('/' | '//') step)*
  ///   step     := tag ['=' alias] ['[' pattern (',' pattern)* ']']
  ///
  /// '/' introduces a P-C edge, '//' an A-D edge. A leading separator is
  /// ignored (twig roots match anywhere, per the structural-join
  /// literature). `tag=alias` renames the node's join attribute; by
  /// default the attribute equals the tag. Examples:
  ///   "A[B,C/E]/D"                     (Figure 2's left sub-twig shape)
  ///   "invoices//orderLine[ISBN,price]" (Figure 1)
  ///
  /// A node deeper than kMaxXmlDepth (xml/parser.h; the root is depth 1,
  /// and each '/', '//' or '[' nests one deeper) is a kParseError. No
  /// answer is lost: every twig edge maps to a strictly deeper document
  /// node, and ParseXml accepts no document that deep.
  static Result<Twig> Parse(const std::string& pattern);

  size_t num_nodes() const { return nodes_.size(); }
  const TwigNode& node(TwigNodeId id) const {
    return nodes_[static_cast<size_t>(id)];
  }
  TwigNodeId root() const { return 0; }

  /// All attribute names in node-id order (preorder of the pattern).
  std::vector<std::string> attributes() const;

  /// Node whose attribute is `name`, or kNullTwigNode.
  TwigNodeId NodeByAttribute(const std::string& name) const;

  /// True if some edge of the twig is A-D.
  bool HasDescendantEdge() const;

  /// Leaves in node-id order.
  std::vector<TwigNodeId> Leaves() const;

  /// Node ids on the root-to-node path, root first, `id` last.
  std::vector<TwigNodeId> PathFromRoot(TwigNodeId id) const;

  /// Pattern rendering (parsable by Parse; attribute aliases included
  /// only where they differ from the tag).
  std::string ToString() const;

  /// Checks attribute uniqueness and tree shape.
  Status Validate() const;

 private:
  friend class TwigBuilder;
  std::vector<TwigNode> nodes_;
};

/// Programmatic twig construction (used by tests and generators).
class TwigBuilder {
 public:
  /// Adds the root node; must be called exactly once, first.
  TwigNodeId AddRoot(const std::string& tag, const std::string& attribute = "");

  /// Adds a node under `parent`; empty attribute defaults to the tag.
  TwigNodeId AddChild(TwigNodeId parent, TwigAxis axis, const std::string& tag,
                      const std::string& attribute = "");

  /// Validates and returns the twig.
  Result<Twig> Finish();

 private:
  Twig twig_;
};

}  // namespace xjoin

#endif  // XJOIN_XML_TWIG_H_
