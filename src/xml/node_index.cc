#include "xml/node_index.h"

#include <algorithm>
#include <charconv>
#include <string>

#include "common/logging.h"

namespace xjoin {

namespace {

bool ByValueThenNode(const ValueNode& a, const ValueNode& b) {
  if (a.value != b.value) return a.value < b.value;
  return a.node < b.node;
}

}  // namespace

NodeIndex NodeIndex::Build(const XmlDocument* doc, Dictionary* dict,
                           ValuePolicy policy, std::string_view scope) {
  NodeIndex index;
  index.doc_ = doc;
  index.policy_ = policy;
  const size_t n = doc->num_nodes();
  index.values_.resize(n);
  // Values are interned in preorder, one dictionary chunk at a time.
  // A chunk's synthetic values are written back to back into
  // `synthetic`, reserved up front so that no append moves the bytes
  // the chunk's views point at.
  const std::string prefix = "\x1F" + std::string(scope) + ":";
  constexpr size_t kMaxIdDigits = 10;  // a NodeId is below 2^31
  const size_t chunk = std::min(n, Dictionary::kBulkChunk);
  std::string synthetic;
  synthetic.reserve(chunk * (prefix.size() + kMaxIdDigits));
  std::vector<std::string_view> views(chunk);
  for (size_t begin = 0; begin < n; begin += chunk) {
    const size_t end = std::min(n, begin + chunk);
    synthetic.clear();
    for (size_t i = begin; i < end; ++i) {
      const std::string_view text = doc->text(static_cast<NodeId>(i));
      if (policy == ValuePolicy::kTextOrNodeId && !text.empty()) {
        views[i - begin] = text;
        continue;
      }
      const size_t at = synthetic.size();
      synthetic += prefix;
      char digits[kMaxIdDigits];
      const char* digits_end =
          std::to_chars(digits, digits + kMaxIdDigits, i).ptr;
      synthetic.append(digits, static_cast<size_t>(digits_end - digits));
      views[i - begin] =
          std::string_view(synthetic.data() + at, synthetic.size() - at);
    }
    dict->InternMany(views.data(), end - begin, index.values_.data() + begin);
  }

  const size_t num_tags = static_cast<size_t>(doc->tag_dict().size());
  index.by_tag_.resize(num_tags);
  index.by_tag_value_.resize(num_tags);
  // Size each per-tag list exactly, sparing the slack (up to half a
  // list) and the copies of growing it by doubling.
  std::vector<size_t> tag_counts(num_tags, 0);
  for (size_t i = 0; i < n; ++i) {
    ++tag_counts[static_cast<size_t>(doc->node(static_cast<NodeId>(i)).tag)];
  }
  for (size_t tag = 0; tag < num_tags; ++tag) {
    index.by_tag_[tag].reserve(tag_counts[tag]);
    index.by_tag_value_[tag].reserve(tag_counts[tag]);
  }
  for (size_t i = 0; i < n; ++i) {
    const XmlNode& node = doc->node(static_cast<NodeId>(i));
    index.by_tag_[static_cast<size_t>(node.tag)].push_back(
        static_cast<NodeId>(i));
    index.by_tag_value_[static_cast<size_t>(node.tag)].push_back(
        ValueNode{index.values_[i], static_cast<NodeId>(i)});
  }
  index.values_unique_.assign(num_tags, 1);
  for (size_t tag = 0; tag < num_tags; ++tag) {
    std::vector<ValueNode>& list = index.by_tag_value_[tag];
    // Values are interned in preorder, so a tag whose values are all
    // distinct and new is already in order.
    if (!std::is_sorted(list.begin(), list.end(), ByValueThenNode)) {
      std::sort(list.begin(), list.end(), ByValueThenNode);
    }
    // Sorted by value, so a shared value shows as an adjacent pair.
    for (size_t i = 1; i < list.size(); ++i) {
      if (list[i - 1].value == list[i].value) {
        index.values_unique_[tag] = 0;
        break;
      }
    }
  }
  return index;
}

const std::vector<NodeId>& NodeIndex::NodesByTag(int32_t tag) const {
  if (tag < 0 || static_cast<size_t>(tag) >= by_tag_.size())
    return empty_nodes_;
  return by_tag_[static_cast<size_t>(tag)];
}

const std::vector<ValueNode>& NodeIndex::ValueSortedNodes(int32_t tag) const {
  if (tag < 0 || static_cast<size_t>(tag) >= by_tag_value_.size()) {
    return empty_value_nodes_;
  }
  return by_tag_value_[static_cast<size_t>(tag)];
}

std::vector<ValueNode> NodeIndex::ChildValues(NodeId parent,
                                              int32_t tag) const {
  std::vector<ValueNode> out;
  for (NodeId c = doc_->node(parent).first_child; c != kNullNode;
       c = doc_->node(c).next_sibling) {
    if (doc_->node(c).tag == tag) out.push_back(ValueNode{ValueOf(c), c});
  }
  std::sort(out.begin(), out.end(), ByValueThenNode);
  return out;
}

std::vector<ValueNode> NodeIndex::DescendantValues(NodeId ancestor,
                                                   int32_t tag) const {
  std::vector<ValueNode> out;
  const std::vector<NodeId>& stream = NodesByTag(tag);
  // Document-order stream is sorted by NodeId; descendants form the
  // contiguous range (ancestor, subtree_end].
  auto lo = std::upper_bound(stream.begin(), stream.end(), ancestor);
  NodeId end = doc_->node(ancestor).subtree_end;
  for (auto it = lo; it != stream.end() && *it <= end; ++it) {
    out.push_back(ValueNode{ValueOf(*it), *it});
  }
  std::sort(out.begin(), out.end(), ByValueThenNode);
  return out;
}

ValueNodeSpan NodeIndex::NodesByTagValue(int32_t tag, int64_t value) const {
  const std::vector<ValueNode>& list = ValueSortedNodes(tag);
  struct ByValue {
    bool operator()(const ValueNode& a, int64_t v) const { return a.value < v; }
    bool operator()(int64_t v, const ValueNode& a) const { return v < a.value; }
  };
  auto [lo, hi] =
      std::equal_range(list.data(), list.data() + list.size(), value, ByValue{});
  return ValueNodeSpan{lo, hi};
}

}  // namespace xjoin
