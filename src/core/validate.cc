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

bool TwigStructureValidator::ExistsEmbedding(const std::vector<int64_t>& values,
                                             ValidationScratch* scratch,
                                             Metrics* metrics) const {
  XJ_DCHECK(values.size() == twig_->num_nodes());
  XJ_DCHECK(scratch != nullptr);
  const size_t n = twig_->num_nodes();
  const XmlDocument& doc = index_->doc();
  std::vector<std::vector<NodeId>>& feasible = scratch->feasible_;
  if (feasible.size() < n) feasible.resize(n);

  // Candidates are counted per node examined and recorded once on the
  // way out — but only if some node got as far as its candidate lookup,
  // exactly as if each lookup had recorded its own count.
  int64_t candidates_seen = 0;
  bool looked_up = false;
  auto finish = [&](bool result) {
    if (looked_up) {
      MetricsAdd(metrics, "validate.candidates", candidates_seen);
    }
    return result;
  };

  // Bottom-up feasibility: a child's id exceeds its parent's, so
  // descending ids process children before parents. feasible[q] holds
  // feasible candidate nodes sorted by NodeId.
  for (size_t qi = n; qi-- > 0;) {
    if (tag_codes_[qi] < 0) return finish(false);  // tag absent from doc
    ValueNodeSpan candidates =
        index_->NodesByTagValue(tag_codes_[qi], values[qi]);
    looked_up = true;
    candidates_seen += static_cast<int64_t>(candidates.size());
    if (candidates.empty()) return finish(false);
    const std::vector<TwigNodeId>& children =
        twig_->node(static_cast<TwigNodeId>(qi)).children;
    std::vector<NodeId>& kept = feasible[qi];
    kept.clear();
    for (const ValueNode& candidate : candidates) {
      const NodeId x = candidate.node;
      bool ok = true;
      for (TwigNodeId child : children) {
        const std::vector<NodeId>& fc = feasible[static_cast<size_t>(child)];
        // Descendants of x occupy the NodeId range (x, subtree_end]: an
        // A-D edge holds for any of them, a P-C edge needs a child of x.
        auto lo = std::upper_bound(fc.begin(), fc.end(), x);
        const NodeId end = doc.node(x).subtree_end;
        bool found;
        if (twig_->node(child).axis == TwigAxis::kDescendant) {
          found = lo != fc.end() && *lo <= end;
        } else {
          found = false;
          for (auto yit = lo; yit != fc.end() && *yit <= end; ++yit) {
            if (doc.node(*yit).parent == x) {
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
