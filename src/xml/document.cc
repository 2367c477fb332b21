#include "xml/document.h"

#include "common/logging.h"
#include "common/string_util.h"

namespace xjoin {

std::vector<NodeId> XmlDocument::NodesWithTag(int32_t tag) const {
  std::vector<NodeId> out;
  for (size_t i = 0; i < nodes_.size(); ++i) {
    if (nodes_[i].tag == tag) out.push_back(static_cast<NodeId>(i));
  }
  return out;
}

std::vector<NodeId> XmlDocument::Children(NodeId id) const {
  std::vector<NodeId> out;
  for (NodeId c = node(id).first_child; c != kNullNode;
       c = node(c).next_sibling) {
    out.push_back(c);
  }
  return out;
}

Status XmlDocument::Validate() const {
  for (size_t i = 0; i < nodes_.size(); ++i) {
    const XmlNode& n = nodes_[i];
    NodeId id = static_cast<NodeId>(i);
    if (n.subtree_end < id ||
        static_cast<size_t>(n.subtree_end) >= nodes_.size() + 0u ||
        n.subtree_end >= static_cast<NodeId>(nodes_.size())) {
      return Status::Internal("node " + std::to_string(i) +
                              ": bad subtree_end " +
                              std::to_string(n.subtree_end));
    }
    if (n.parent != kNullNode) {
      const XmlNode& p = nodes_[static_cast<size_t>(n.parent)];
      if (!(n.parent < id && id <= p.subtree_end)) {
        return Status::Internal("node " + std::to_string(i) +
                                ": not inside parent region");
      }
      if (n.level != p.level + 1) {
        return Status::Internal("node " + std::to_string(i) + ": bad level");
      }
    } else if (id != 0) {
      return Status::Internal("non-root node without parent");
    }
    for (NodeId c = n.first_child; c != kNullNode;
         c = nodes_[static_cast<size_t>(c)].next_sibling) {
      if (nodes_[static_cast<size_t>(c)].parent != id) {
        return Status::Internal("child/parent pointer mismatch at node " +
                                std::to_string(c));
      }
    }
  }
  return Status::OK();
}

XmlDocumentBuilder::XmlDocumentBuilder() = default;

NodeId XmlDocumentBuilder::StartElement(std::string_view tag) {
  NodeId id = static_cast<NodeId>(doc_.nodes_.size());
  XmlNode n;
  auto known = tag_codes_.find(tag);
  if (known != tag_codes_.end()) {
    n.tag = known->second;
  } else {
    n.tag = static_cast<int32_t>(doc_.tag_dict_.Intern(tag));
    tag_codes_.emplace(doc_.tag_dict_.Decode(n.tag), n.tag);
  }
  n.level = static_cast<int32_t>(stack_.size());
  if (!stack_.empty()) {
    n.parent = stack_.back();
    NodeId prev = last_child_.back();
    if (prev == kNullNode) {
      doc_.nodes_[static_cast<size_t>(stack_.back())].first_child = id;
    } else {
      doc_.nodes_[static_cast<size_t>(prev)].next_sibling = id;
    }
    last_child_.back() = id;
  }
  doc_.nodes_.push_back(std::move(n));
  stack_.push_back(id);
  last_child_.push_back(kNullNode);
  return id;
}

void XmlDocumentBuilder::AddText(std::string_view text) {
  std::string_view trimmed = TrimWhitespace(text);
  if (trimmed.empty() || stack_.empty()) return;
  XmlNode& node = doc_.nodes_[static_cast<size_t>(stack_.back())];
  std::string& arena = doc_.text_;
  XJ_CHECK(arena.size() + node.text_length + trimmed.size() <= UINT32_MAX)
      << "XML text arena beyond 4 GiB";
  if (node.text_length == 0) {
    node.text_offset = static_cast<uint32_t>(arena.size());
  } else if (node.text_offset + node.text_length != arena.size()) {
    // Another node's text follows this one's: move it to the end, where
    // it can grow.
    const std::string earlier =
        arena.substr(node.text_offset, node.text_length);
    node.text_offset = static_cast<uint32_t>(arena.size());
    arena += earlier;
  }
  arena += trimmed;
  node.text_length += static_cast<uint32_t>(trimmed.size());
}

NodeId XmlDocumentBuilder::AddLeaf(std::string_view tag,
                                   std::string_view text) {
  NodeId id = StartElement(tag);
  AddText(text);
  XJ_CHECK_OK(EndElement());
  return id;
}

Status XmlDocumentBuilder::EndElement() {
  if (stack_.empty()) return Status::InvalidArgument("EndElement at depth 0");
  NodeId id = stack_.back();
  doc_.nodes_[static_cast<size_t>(id)].subtree_end =
      static_cast<NodeId>(doc_.nodes_.size()) - 1;
  stack_.pop_back();
  last_child_.pop_back();
  if (stack_.empty()) root_done_ = true;
  return Status::OK();
}

Result<XmlDocument> XmlDocumentBuilder::Finish() {
  if (!stack_.empty()) {
    return Status::InvalidArgument(std::to_string(stack_.size()) +
                                   " elements left open");
  }
  if (doc_.nodes_.empty()) return Status::InvalidArgument("empty document");
  if (doc_.nodes_[0].subtree_end !=
      static_cast<NodeId>(doc_.nodes_.size()) - 1) {
    return Status::InvalidArgument("document has multiple root elements");
  }
  doc_.text_.shrink_to_fit();
  return std::move(doc_);
}

}  // namespace xjoin
