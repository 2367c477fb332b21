// XJoin (paper Algorithm 1): the worst-case optimal multi-model join.
//
//   S <- Sr ∪ transform(Sx)        — relations + twig path relations
//   for each p in PA:              — attribute-at-a-time expansion
//     expand by common values of p across all of S (leapfrog)
//   filter R by validating the structure of Sx
//
// The one-shot procedure is split into a prepared pipeline
// (core/plan.h): PrepareXJoin derives everything shape-dependent once
// (order, decompositions, pinned tries) and ExecutePlan
// replays it — ExecuteXJoin below is exactly Prepare + Execute. The
// path relations are always navigated lazily ("we do not physically
// transform them into relational tables"), and twig structure is
// validated once, on the full expanded rows.
#ifndef XJOIN_CORE_XJOIN_H_
#define XJOIN_CORE_XJOIN_H_

#include "common/status.h"
#include "core/plan.h"
#include "core/query.h"
#include "relational/relation.h"

namespace xjoin {

/// Executes a prepared plan: instantiates cursors over the pinned tries
/// (lazy document cursors for the twig paths), runs the expansion
/// loop (sharded on level-0 key ranges when the plan's settings ask for
/// more than one shard), validates twig structure, and projects. Every
/// engine knob (threads, shards, order) was frozen into
/// plan.settings at prepare time, which is what makes a cached plan
/// deterministic; of the services only metrics and budget are
/// consulted, on the shared Executor::Default() pool. Safe to call
/// concurrently on the same plan.
Result<Relation> ExecutePlan(const XJoinPlan& plan,
                             const EngineServices& services = {});

/// Runs XJoin (paper Algorithm 1) and returns the distinct result tuples
/// over the query's output attributes (all attributes when
/// output_attributes is empty). Implemented as
/// PrepareXJoin(query, settings, services) + ExecutePlan(plan, services).
///
/// Worst-case optimality (paper Theorem 4.1 via Lemma 3.5): with a
/// bound-respecting expansion order, every per-attribute expansion stage
/// stays within the Equation-1 fractional-cover bound of the query, so
/// total expansion work is O~(bound); the trailing structural validation
/// adds O(|expanded|) embedding checks. Fails on invalid queries
/// (ValidateQuery) or an inconsistent user-supplied attribute_order.
Result<Relation> ExecuteXJoin(const MultiModelQuery& query,
                              const PlanSettings& settings = {},
                              const EngineServices& services = {});

}  // namespace xjoin

#endif  // XJOIN_CORE_XJOIN_H_
