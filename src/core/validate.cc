#include "core/validate.h"

#include <algorithm>

#include "common/logging.h"

namespace xjoin {

TwigStructureValidator::TwigStructureValidator(const Twig* twig,
                                               const NodeIndex* index)
    : twig_(twig), index_(index) {
  tag_codes_.reserve(twig->num_nodes());
  for (size_t i = 0; i < twig->num_nodes(); ++i) {
    tag_codes_.push_back(
        index->doc().LookupTag(twig->node(static_cast<TwigNodeId>(i)).tag));
  }
}

bool TwigStructureValidator::ExistsEmbedding(
    const std::vector<std::optional<int64_t>>& values,
    ValidationScratch* scratch, Metrics* metrics) const {
  XJ_DCHECK(values.size() == twig_->num_nodes());
  XJ_DCHECK(scratch != nullptr);
  using SkeletonEdge = ValidationScratch::SkeletonEdge;
  const size_t n = twig_->num_nodes();
  const XmlDocument& doc = index_->doc();

  // Contract the twig onto its bound nodes: for each bound node, find the
  // nearest bound proper ancestor and the properties of the contracted
  // edge (distance, all-P-C?, direct edge?).
  std::vector<std::vector<SkeletonEdge>>& children = scratch->children_;
  std::vector<TwigNodeId>& bound_nodes = scratch->bound_nodes_;
  std::vector<std::vector<NodeId>>& feasible = scratch->feasible_;
  if (children.size() < n) children.resize(n);
  if (feasible.size() < n) feasible.resize(n);
  for (size_t i = 0; i < n; ++i) children[i].clear();
  bound_nodes.clear();
  for (size_t i = 0; i < n; ++i) {
    if (!values[i].has_value()) continue;
    TwigNodeId q = static_cast<TwigNodeId>(i);
    bound_nodes.push_back(q);
    // Walk up until a bound ancestor (or root).
    int32_t distance = 0;
    bool all_pc = true;
    TwigNodeId cur = q;
    while (twig_->node(cur).parent != kNullTwigNode) {
      if (twig_->node(cur).axis == TwigAxis::kDescendant) all_pc = false;
      ++distance;
      cur = twig_->node(cur).parent;
      if (values[static_cast<size_t>(cur)].has_value()) {
        SkeletonEdge e;
        e.child = q;
        e.distance = distance;
        e.exact_parent = (distance == 1 && all_pc);
        e.exact_level = all_pc;
        children[static_cast<size_t>(cur)].push_back(e);
        break;
      }
    }
  }

  // Candidates are counted per bound node examined and recorded once on
  // the way out — but only if some node got as far as its candidate
  // lookup, exactly as if each lookup had recorded its own count.
  int64_t candidates_seen = 0;
  bool looked_up = false;
  auto finish = [&](bool result) {
    if (looked_up) {
      MetricsAdd(metrics, "validate.candidates", candidates_seen);
    }
    return result;
  };

  // Bottom-up feasibility: bound nodes are in preorder, so reverse order
  // processes children before parents. feasible[q] holds feasible
  // candidate nodes sorted by NodeId.
  for (auto it = bound_nodes.rbegin(); it != bound_nodes.rend(); ++it) {
    TwigNodeId q = *it;
    size_t qi = static_cast<size_t>(q);
    if (tag_codes_[qi] < 0) return finish(false);  // tag absent from doc
    ValueNodeSpan candidates =
        index_->NodesByTagValue(tag_codes_[qi], *values[qi]);
    looked_up = true;
    candidates_seen += static_cast<int64_t>(candidates.size());
    if (candidates.empty()) return finish(false);
    std::vector<NodeId>& kept = feasible[qi];
    kept.clear();
    for (const ValueNode& candidate : candidates) {
      const NodeId x = candidate.node;
      bool ok = true;
      for (const SkeletonEdge& e : children[qi]) {
        const std::vector<NodeId>& fc = feasible[static_cast<size_t>(e.child)];
        // Descendants of x occupy the NodeId range (x, subtree_end].
        auto lo = std::upper_bound(fc.begin(), fc.end(), x);
        NodeId end = doc.node(x).subtree_end;
        bool found = false;
        for (auto yit = lo; yit != fc.end() && *yit <= end; ++yit) {
          NodeId y = *yit;
          if (e.exact_parent) {
            if (doc.node(y).parent == x) {
              found = true;
              break;
            }
          } else if (e.exact_level) {
            if (doc.node(y).level == doc.node(x).level + e.distance) {
              found = true;
              break;
            }
          } else {
            if (doc.node(y).level >= doc.node(x).level + e.distance) {
              found = true;
              break;
            }
          }
        }
        if (!found) {
          ok = false;
          break;
        }
      }
      if (ok) kept.push_back(x);
    }
    if (kept.empty()) return finish(false);
  }
  return finish(true);
}

}  // namespace xjoin
