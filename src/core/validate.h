// Structural validation of value-level join results (the final "Filter R
// by validating structure of Sx" of Algorithm 1, and the in-join partial
// validation the paper lists as on-going work).
//
// A value assignment to twig attributes is *structurally valid* when at
// least one embedding of the twig binds every query node q to a document
// node with tag(q) and the assigned value. The check is a tree-shaped
// constraint-satisfaction problem solved bottom-up over candidate node
// sets — exact for full assignments; for partial assignments the twig is
// contracted onto the bound nodes (nearest-bound-ancestor skeleton with
// level-distance constraints), a sound relaxation used for pruning.
//
// ExecutePlan (core/xjoin.cc) runs the final check only for twigs that
// are not certified at prepare time (XJoinPlan::TwigExec::certified), so
// the "validate.*" counters are recorded only for the twigs that are
// validated: by the prefix filter, and by the final pass over the
// uncertified twigs.
#ifndef XJOIN_CORE_VALIDATE_H_
#define XJOIN_CORE_VALIDATE_H_

#include <cstdint>
#include <optional>
#include <vector>

#include "common/metrics.h"
#include "xml/node_index.h"
#include "xml/twig.h"

namespace xjoin {

/// Caller-owned working buffers for TwigStructureValidator::
/// ExistsEmbedding. A call clear()s and refills them, so reusing one
/// scratch across calls (any twig, any document) stops the validation
/// loop from allocating once the buffers have grown. No state carries
/// from one call to the next; a scratch must not be shared by two
/// concurrent calls.
class ValidationScratch {
 private:
  friend class TwigStructureValidator;

  struct SkeletonEdge {
    TwigNodeId child;      // bound twig node
    bool exact_parent;     // direct P-C edge: require parent(y) == x
    bool exact_level;      // all-P-C contracted path: level diff == dist
    int32_t distance;      // number of twig edges contracted
  };

  std::vector<std::vector<SkeletonEdge>> children_;  // per twig node
  std::vector<TwigNodeId> bound_nodes_;              // preorder
  std::vector<std::vector<NodeId>> feasible_;        // per twig node
};

/// Validator for one (twig, document) pair. Stateless between calls;
/// cheap to copy.
class TwigStructureValidator {
 public:
  TwigStructureValidator(const Twig* twig, const NodeIndex* index);

  /// `values[q]` is the value bound to twig node q, or nullopt when the
  /// node is not (yet) bound. Returns true when some embedding is
  /// consistent with every bound value (exact if all nodes are bound).
  /// `scratch` (not null) supplies the working buffers. Records
  /// "validate.candidates", the number of document nodes whose tag and
  /// value match a bound node, summed over the bound nodes examined.
  bool ExistsEmbedding(const std::vector<std::optional<int64_t>>& values,
                       ValidationScratch* scratch,
                       Metrics* metrics = nullptr) const;

 private:
  const Twig* twig_;
  const NodeIndex* index_;
  std::vector<int32_t> tag_codes_;  // per twig node; -1 if absent in doc
};

}  // namespace xjoin

#endif  // XJOIN_CORE_VALIDATE_H_
