// Classical relational operators used by the baseline plans (paper
// Figure 3: Q1 is evaluated with binary joins) and by result
// post-processing. All operators are set-semantics over dictionary codes.
#ifndef XJOIN_RELATIONAL_OPERATORS_H_
#define XJOIN_RELATIONAL_OPERATORS_H_

#include <string>
#include <vector>

#include "common/metrics.h"
#include "common/status.h"
#include "relational/relation.h"

namespace xjoin {

/// Projects onto `attributes` (deduplicated output).
Result<Relation> Project(const Relation& input,
                         const std::vector<std::string>& attributes);

/// Natural hash join: matches on all shared attribute names; the output
/// schema is left's attributes followed by right's non-shared attributes.
/// If the schemas share no attribute this is a cartesian product.
/// `metrics` (nullable) gets "hash_join.output" and
/// "hash_join.probe_matches" counters.
Result<Relation> HashJoin(const Relation& left, const Relation& right,
                          Metrics* metrics = nullptr);

/// Left-deep natural-join plan over `inputs` in the given order, tracking
/// the peak intermediate cardinality in metrics counter
/// "plan.max_intermediate" and the sum in "plan.total_intermediate".
Result<Relation> JoinAll(const std::vector<const Relation*>& inputs,
                         Metrics* metrics = nullptr);

/// True if both relations contain exactly the same set of rows (order-
/// insensitive); schemas must list the same attributes in the same order.
bool RelationsEqualAsSets(const Relation& a, const Relation& b);

}  // namespace xjoin

#endif  // XJOIN_RELATIONAL_OPERATORS_H_
