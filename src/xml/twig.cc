#include "xml/twig.h"

#include <algorithm>
#include <unordered_set>

#include "common/logging.h"
#include "common/string_util.h"
#include "xml/parser.h"

namespace xjoin {

namespace {

class TwigParser {
 public:
  explicit TwigParser(const std::string& text) : text_(text) {}

  Result<Twig> Run() {
    TwigAxis root_axis;  // ignored for the root
    XJ_RETURN_NOT_OK(ParseLeadingSeparator(&root_axis));
    XJ_RETURN_NOT_OK(ParsePath(kNullTwigNode, root_axis, 1, &builder_));
    SkipWhitespace();
    if (pos_ != text_.size()) {
      return Error("trailing characters after pattern");
    }
    return builder_.Finish();
  }

 private:
  Status Error(const std::string& msg) const {
    return Status::ParseError("twig pattern at offset " + std::to_string(pos_) +
                              ": " + msg);
  }

  void SkipWhitespace() {
    while (pos_ < text_.size() && (text_[pos_] == ' ' || text_[pos_] == '\t')) {
      ++pos_;
    }
  }

  bool Consume(char c) {
    SkipWhitespace();
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  Status ParseLeadingSeparator(TwigAxis* axis) {
    *axis = TwigAxis::kChild;
    if (Consume('/')) {
      if (Consume('/')) *axis = TwigAxis::kDescendant;
    }
    return Status::OK();
  }

  static bool IsNameChar(char c) {
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
           (c >= '0' && c <= '9') || c == '_' || c == '-' || c == '.' ||
           c == '@' || c == '*' || c == ':';
  }

  Result<std::string> ParseName() {
    SkipWhitespace();
    std::string name;
    while (pos_ < text_.size() && IsNameChar(text_[pos_])) {
      name += text_[pos_];
      ++pos_;
    }
    if (name.empty()) return Error("expected tag name");
    return name;
  }

  // Parses "step (('/'|'//') step)*" hanging the first step under
  // `parent` with `axis`; that step's node is `depth` deep (the root is
  // depth 1). Recursion is one frame per '[', so the depth cap bounds
  // it as well.
  Status ParsePath(TwigNodeId parent, TwigAxis axis, int depth,
                   TwigBuilder* builder) {
    for (;; ++depth) {
      if (depth > kMaxXmlDepth) {
        return Error("twig nodes nest deeper than " +
                     std::to_string(kMaxXmlDepth));
      }
      XJ_ASSIGN_OR_RETURN(std::string tag, ParseName());
      std::string alias;
      if (Consume('=')) {
        XJ_ASSIGN_OR_RETURN(alias, ParseName());
      }
      TwigNodeId id = (parent == kNullTwigNode)
                          ? builder->AddRoot(tag, alias)
                          : builder->AddChild(parent, axis, tag, alias);

      if (Consume('[')) {
        for (;;) {
          TwigAxis branch_axis = TwigAxis::kChild;
          if (Consume('/')) {
            if (Consume('/')) branch_axis = TwigAxis::kDescendant;
          }
          XJ_RETURN_NOT_OK(ParsePath(id, branch_axis, depth + 1, builder));
          if (Consume(',')) continue;
          if (Consume(']')) break;
          return Error("expected ',' or ']' in branch list");
        }
      }

      if (Consume('/')) {
        axis = Consume('/') ? TwigAxis::kDescendant : TwigAxis::kChild;
        parent = id;
        continue;
      }
      return Status::OK();
    }
  }

  const std::string& text_;
  size_t pos_ = 0;
  TwigBuilder builder_;
};

void RenderNode(const Twig& twig, TwigNodeId id, std::string* out) {
  const TwigNode& n = twig.node(id);
  *out += n.tag;
  if (n.attribute != n.tag) {
    *out += "=";
    *out += n.attribute;
  }
  const auto& kids = n.children;
  if (kids.empty()) return;
  // Render the first child inline when it is an only child, else bracket
  // every child. Bracketing all children is always parse-compatible; we
  // bracket all but the last for readability.
  if (kids.size() == 1) {
    const TwigNode& c = twig.node(kids[0]);
    *out += (c.axis == TwigAxis::kDescendant) ? "//" : "/";
    RenderNode(twig, kids[0], out);
    return;
  }
  *out += "[";
  for (size_t i = 0; i + 1 < kids.size(); ++i) {
    if (i) *out += ",";
    const TwigNode& c = twig.node(kids[i]);
    if (c.axis == TwigAxis::kDescendant) *out += "//";
    RenderNode(twig, kids[i], out);
  }
  *out += "]";
  const TwigNode& last = twig.node(kids.back());
  *out += (last.axis == TwigAxis::kDescendant) ? "//" : "/";
  RenderNode(twig, kids.back(), out);
}

}  // namespace

Result<Twig> Twig::Parse(const std::string& pattern) {
  TwigParser parser(pattern);
  return parser.Run();
}

std::vector<std::string> Twig::attributes() const {
  std::vector<std::string> out;
  out.reserve(nodes_.size());
  for (const auto& n : nodes_) out.push_back(n.attribute);
  return out;
}

TwigNodeId Twig::NodeByAttribute(const std::string& name) const {
  for (size_t i = 0; i < nodes_.size(); ++i) {
    if (nodes_[i].attribute == name) return static_cast<TwigNodeId>(i);
  }
  return kNullTwigNode;
}

bool Twig::HasDescendantEdge() const {
  for (size_t i = 1; i < nodes_.size(); ++i) {
    if (nodes_[i].axis == TwigAxis::kDescendant) return true;
  }
  return false;
}

std::vector<TwigNodeId> Twig::Leaves() const {
  std::vector<TwigNodeId> out;
  for (size_t i = 0; i < nodes_.size(); ++i) {
    if (nodes_[i].children.empty()) out.push_back(static_cast<TwigNodeId>(i));
  }
  return out;
}

std::vector<TwigNodeId> Twig::PathFromRoot(TwigNodeId id) const {
  std::vector<TwigNodeId> path;
  for (TwigNodeId cur = id; cur != kNullTwigNode; cur = node(cur).parent) {
    path.push_back(cur);
  }
  std::reverse(path.begin(), path.end());
  return path;
}

std::string Twig::ToString() const {
  std::string out;
  if (!nodes_.empty()) RenderNode(*this, root(), &out);
  return out;
}

Status Twig::Validate() const {
  if (nodes_.empty()) return Status::InvalidArgument("empty twig");
  std::unordered_set<std::string> attrs;
  for (size_t i = 0; i < nodes_.size(); ++i) {
    const TwigNode& n = nodes_[i];
    if (n.tag.empty()) return Status::InvalidArgument("twig node without tag");
    if (n.attribute.empty()) {
      return Status::InvalidArgument("twig node without attribute");
    }
    if (!attrs.insert(n.attribute).second) {
      return Status::InvalidArgument(
          "duplicate twig attribute '" + n.attribute +
          "' (use tag=alias to disambiguate repeated tags)");
    }
    if (i == 0) {
      if (n.parent != kNullTwigNode) {
        return Status::InvalidArgument("twig root with parent");
      }
    } else {
      if (n.parent == kNullTwigNode || n.parent >= static_cast<TwigNodeId>(i)) {
        return Status::InvalidArgument("twig nodes must be in preorder");
      }
    }
  }
  return Status::OK();
}

TwigNodeId TwigBuilder::AddRoot(const std::string& tag,
                                const std::string& attribute) {
  XJ_CHECK(twig_.nodes_.empty()) << "AddRoot called twice";
  TwigNode n;
  n.tag = tag;
  n.attribute = attribute.empty() ? tag : attribute;
  twig_.nodes_.push_back(std::move(n));
  return 0;
}

TwigNodeId TwigBuilder::AddChild(TwigNodeId parent, TwigAxis axis,
                                 const std::string& tag,
                                 const std::string& attribute) {
  XJ_CHECK(parent >= 0 &&
           static_cast<size_t>(parent) < twig_.nodes_.size())
      << "bad twig parent";
  TwigNodeId id = static_cast<TwigNodeId>(twig_.nodes_.size());
  TwigNode n;
  n.tag = tag;
  n.attribute = attribute.empty() ? tag : attribute;
  n.axis = axis;
  n.parent = parent;
  twig_.nodes_.push_back(std::move(n));
  twig_.nodes_[static_cast<size_t>(parent)].children.push_back(id);
  return id;
}

Result<Twig> TwigBuilder::Finish() {
  XJ_RETURN_NOT_OK(twig_.Validate());
  return std::move(twig_);
}

}  // namespace xjoin
