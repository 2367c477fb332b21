// Structural validation of value-level join results: the final "Filter R
// by validating structure of Sx" of Algorithm 1.
//
// A value assignment to twig attributes is *structurally valid* when at
// least one embedding of the twig binds every query node q to a document
// node with tag(q) and the assigned value, with every P-C edge mapped to
// a parent link and every A-D edge to an ancestor-descendant pair. The
// check is a tree-shaped constraint-satisfaction problem solved
// bottom-up over candidate node sets.
//
// ExecutePlan (core/xjoin.cc) runs the check only for twigs that are
// not certified at prepare time (XJoinPlan::TwigExec::certified), so
// the "validate.*" counters are recorded only for the rows of those
// twigs.
#ifndef XJOIN_CORE_VALIDATE_H_
#define XJOIN_CORE_VALIDATE_H_

#include <cstdint>
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

  std::vector<std::vector<NodeId>> feasible_;  // per twig node
};

/// Validator for one (twig, document) pair. Stateless between calls;
/// cheap to copy.
class TwigStructureValidator {
 public:
  TwigStructureValidator(const Twig* twig, const NodeIndex* index);

  /// `values[q]` is the value bound to twig node q; every node is
  /// bound. Returns true when some embedding is consistent with the
  /// values. `scratch` (not null) supplies the working buffers. Records
  /// "validate.candidates", the number of document nodes whose tag and
  /// value match a node, summed over the nodes examined.
  bool ExistsEmbedding(const std::vector<int64_t>& values,
                       ValidationScratch* scratch,
                       Metrics* metrics = nullptr) const;

 private:
  const Twig* twig_;
  const NodeIndex* index_;
  std::vector<int32_t> tag_codes_;  // per twig node; -1 if absent in doc
};

}  // namespace xjoin

#endif  // XJOIN_CORE_VALIDATE_H_
