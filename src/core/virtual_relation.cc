#include "core/virtual_relation.h"

#include <algorithm>

#include "common/logging.h"
#include "relational/schema.h"

namespace xjoin {

Result<PathRelation> PathRelation::Make(const Twig& twig, const TwigPath& path,
                                        const NodeIndex* index) {
  PathRelation rel;
  rel.index_ = index;
  rel.attributes_ = path.attributes;
  for (TwigNodeId q : path.nodes) {
    const std::string& tag = twig.node(q).tag;
    if (tag == "*") {
      return Status::InvalidArgument(
          "wildcard tags are not supported in multi-model joins");
    }
    rel.tags_.push_back(index->doc().LookupTag(tag));
  }
  return rel;
}

std::unique_ptr<TrieIterator> PathRelation::NewLazyIterator() const {
  return std::make_unique<LazyPathTrieIterator>(this);
}

Result<Relation> PathRelation::Materialize() const {
  XJ_ASSIGN_OR_RETURN(Schema schema, Schema::Make(attributes_));
  Relation out(std::move(schema));
  const XmlDocument& doc = index_->doc();
  if (tags_.empty()) return out;
  if (tags_[0] < 0) return out;  // root tag absent

  Tuple row(tags_.size());
  // Depth-first chain enumeration.
  struct Level {
    std::vector<NodeId> nodes;
    size_t next;
  };
  std::vector<Level> stack;
  stack.push_back({index_->NodesByTag(tags_[0]), 0});
  while (!stack.empty()) {
    Level& top = stack.back();
    if (top.next >= top.nodes.size()) {
      stack.pop_back();
      continue;
    }
    NodeId node = top.nodes[top.next++];
    row[stack.size() - 1] = index_->ValueOf(node);
    if (stack.size() == tags_.size()) {
      out.AppendRow(row);
      continue;
    }
    int32_t next_tag = tags_[stack.size()];
    std::vector<NodeId> children;
    if (next_tag >= 0) {
      for (NodeId c = doc.node(node).first_child; c != kNullNode;
           c = doc.node(c).next_sibling) {
        if (doc.node(c).tag == next_tag) children.push_back(c);
      }
    }
    stack.push_back({std::move(children), 0});
  }
  out.SortAndDedup();
  return out;
}

int64_t PathRelation::CountChains() const {
  if (tags_.empty()) return 0;
  if (tags_[0] < 0) return 0;
  const XmlDocument& doc = index_->doc();
  // chains[x] = number of chains for the path suffix starting at level
  // `lvl` whose first node is x. Computed bottom-up over levels.
  const size_t k = tags_.size();
  // For the last level every matching node contributes one chain.
  std::vector<int64_t> counts;  // parallel to nodes of current level
  std::vector<NodeId> nodes = index_->NodesByTag(tags_[k - 1]);
  counts.assign(nodes.size(), 1);
  for (size_t lvl = k - 1; lvl-- > 0;) {
    // Map node -> count for quick child lookup.
    std::vector<int64_t> count_by_node(doc.num_nodes(), 0);
    for (size_t i = 0; i < nodes.size(); ++i) {
      count_by_node[static_cast<size_t>(nodes[i])] = counts[i];
    }
    std::vector<NodeId> up_nodes = index_->NodesByTag(tags_[lvl]);
    std::vector<int64_t> up_counts(up_nodes.size(), 0);
    int32_t child_tag = tags_[lvl + 1];
    for (size_t i = 0; i < up_nodes.size(); ++i) {
      int64_t total = 0;
      for (NodeId c = doc.node(up_nodes[i]).first_child; c != kNullNode;
           c = doc.node(c).next_sibling) {
        if (doc.node(c).tag == child_tag) {
          total += count_by_node[static_cast<size_t>(c)];
        }
      }
      up_counts[i] = total;
    }
    nodes = std::move(up_nodes);
    counts = std::move(up_counts);
  }
  int64_t total = 0;
  for (int64_t c : counts) total += c;
  return total;
}

LazyPathTrieIterator::LazyPathTrieIterator(const PathRelation* relation)
    : relation_(relation), frames_(static_cast<size_t>(relation->arity())) {}

KeySpan LazyPathTrieIterator::Open(size_t parent_pos) {
  XJ_DCHECK(open_ < frames_.size());
  Frame& f = frames_[open_];
  const uint64_t parent_stamp = open_ == 0 ? 0 : frames_[open_ - 1].stamp;
  if (open_ == 0) parent_pos = 0;
  if (f.stamp != 0 && f.parent_pos == parent_pos &&
      f.parent_stamp == parent_stamp) {
    ++open_;
    return KeySpan{f.keys.data(), 0, f.keys.size()};
  }
  f.stamp = ++next_stamp_;
  f.parent_pos = parent_pos;
  f.parent_stamp = parent_stamp;
  const NodeIndex& index = relation_->index();
  const int32_t tag = relation_->tags()[open_];
  size_t n = 0;
  if (open_ == 0) {
    f.entries = nullptr;
    if (tag >= 0) {
      const std::vector<ValueNode>& roots = index.ValueSortedNodes(tag);
      f.entries = roots.data();
      n = roots.size();
    }
  } else {
    const Frame& parent = frames_[open_ - 1];
    XJ_DCHECK(parent_pos + 1 < parent.group.size());
    f.owned.clear();
    if (tag >= 0) {
      const XmlDocument& doc = index.doc();
      for (size_t i = parent.group[parent_pos];
           i < parent.group[parent_pos + 1]; ++i) {
        for (NodeId c = doc.node(parent.entries[i].node).first_child;
             c != kNullNode; c = doc.node(c).next_sibling) {
          if (doc.node(c).tag == tag) {
            f.owned.push_back(ValueNode{index.ValueOf(c), c});
          }
        }
      }
      std::sort(f.owned.begin(), f.owned.end(),
                [](const ValueNode& a, const ValueNode& b) {
                  if (a.value != b.value) return a.value < b.value;
                  return a.node < b.node;
                });
    }
    f.entries = f.owned.data();
    n = f.owned.size();
  }
  // One linear pass folds the sorted entries into distinct keys and the
  // entry range each key's children are gathered from.
  f.keys.clear();
  f.group.clear();
  f.keys.reserve(n);
  f.group.reserve(n + 1);
  for (size_t i = 0; i < n; ++i) {
    if (i == 0 || f.entries[i].value != f.keys.back()) {
      f.keys.push_back(f.entries[i].value);
      f.group.push_back(i);
    }
  }
  f.group.push_back(n);
  ++open_;
  return KeySpan{f.keys.data(), 0, f.keys.size()};
}

std::unique_ptr<TrieIterator> LazyPathTrieIterator::Clone() const {
  return std::make_unique<LazyPathTrieIterator>(relation_);
}

}  // namespace xjoin
