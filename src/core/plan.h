// The prepared-statement layer of the engine: everything Algorithm 1
// derives from the *shape* of a query — expansion order with its
// per-level leads, twig decompositions — plus pinned trie handles,
// computed once by PrepareXJoin and replayed by ExecutePlan
// (core/xjoin.h). The lifecycle is Prepare -> Pin -> Execute:
//
//   Prepare  resolve inputs, transform(Sx) path relations, choose PA
//            with its per-level rationale
//   Pin      obtain shared_ptr<const RelationTrie> handles through the
//            provider below (the database's trie cache) or build privately
//   Execute  ExecutePlan walks the pinned tries; no planning work left
//
// MultiModelDatabase caches XJoinPlans keyed by canonical query text +
// PlanSettings fingerprint. A hit requires every input version to match
// the session's snapshot, so repeated query shapes skip order selection
// and all trie builds; any other lookup is a miss that prepares afresh,
// and every write drops the cached plans that read the name it changed.
#ifndef XJOIN_CORE_PLAN_H_
#define XJOIN_CORE_PLAN_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/budget.h"
#include "common/metrics.h"
#include "common/status.h"
#include "core/decompose.h"
#include "core/order.h"
#include "core/query.h"
#include "core/validate.h"
#include "core/virtual_relation.h"
#include "relational/relation.h"
#include "relational/trie.h"

namespace xjoin {

/// Optional supplier of materialized relation tries, consulted for every
/// named relational input before the engine builds one privately — this
/// is how MultiModelDatabase's trie cache plugs into XJoin. Returning a
/// null shared_ptr (inside an OK result) means "no cached trie, build
/// locally". A returned trie must match (relation, order) exactly and
/// must stay immutable and alive for the duration of the query; the
/// plan keeps the shared_ptr pinned until it is destroyed.
using TrieProvider = std::function<Result<std::shared_ptr<const RelationTrie>>(
    const std::string& name, const Relation& relation,
    const std::vector<std::string>& order)>;

/// Algorithm 1's plan-shaping choices. PrepareXJoin normalises them once
/// into XJoinPlan::settings, and PlanFingerprint hashes every field: the
/// second half of the database's plan-cache key. Nothing per-call lives
/// here (see EngineServices), so a plan is a function of the query, its
/// inputs and these settings alone.
struct PlanSettings {
  /// The paper's PA: explicit expansion order. Empty = choose
  /// automatically (core/order.h). Must respect twig path precedence.
  std::vector<std::string> attribute_order;
  /// Greedy rule used when attribute_order is empty.
  OrderHeuristic order_heuristic = OrderHeuristic::kCoverage;
  /// Worker threads for trie builds, the expansion loop and the final
  /// structural validation. <= 1 (default) runs fully serial; > 1 runs
  /// the expansion's level-0 key ranges on up to this many workers of
  /// the shared executor pool (see GenericJoinOptions::num_threads). The
  /// result relation is byte-identical either way.
  int num_threads = 1;
  /// Requested level-0 key-range shard count, forwarded to
  /// GenericJoinOptions::num_shards (<= 0 = one shard per thread), which
  /// caps it by the level-0 lead's key count at run time. num_shards > 1
  /// with num_threads == 1 runs the ranges in order on the calling
  /// thread, straight into the result.
  int num_shards = 0;
};

/// The per-call services of one prepare or execute. Never part of a
/// plan or its fingerprint: a cached plan replays identically whatever
/// services a later call brings.
struct EngineServices {
  /// Nullable counters. Records the generic-join "gj.*" counters plus
  /// "plan.prepared" / "plan.prepare_micros" (prepare side),
  /// "xjoin.expanded" (tuples before validation), "xjoin.validated"
  /// (tuples after), "xjoin.max_intermediate", and the "validate.*"
  /// sub-counters of the final validation of uncertified twigs (see
  /// XJoinPlan::TwigExec) — exact at every thread count (per-worker bags
  /// merged at the barrier).
  Metrics* metrics = nullptr;
  /// Optional per-query budget (nullable), and the engine's only cancel
  /// channel: the query's cancellation token rides it (a BudgetTracker
  /// constructor argument). PrepareXJoin polls violated()
  /// before every trie pin, so a cancelled caller never pays for a cold
  /// trie build. ExecutePlan shares it between the expansion loop and
  /// the final structural validation: every materialized row at any
  /// stage is charged against it and the deadline is sampled as work
  /// progresses. On violation the engine stops, discards partial rows,
  /// and returns the tracker's typed Status (kResourceExhausted /
  /// kDeadlineExceeded / kCancelled).
  BudgetTracker* budget = nullptr;
  /// Optional trie cache hook (see TrieProvider above). Empty = every
  /// prepare builds its own relation tries.
  TrieProvider trie_provider;
};

/// Rationale for one expansion level, recorded at prepare time: who
/// participates, who the planned leapfrog lead is, and why (smallest
/// static key-count estimate). The executor still re-picks the lead
/// dynamically per prefix (estimates sharpen as prefixes bind); the
/// planned lead is the level's a-priori choice shown by EXPLAIN.
struct PlanLevel {
  std::string attribute;
  std::vector<std::string> participants;  ///< input names covering it
  std::string lead;                       ///< planned leapfrog lead input
  int64_t lead_estimate = 0;              ///< its static key-count estimate
  int coverage = 0;                       ///< #inputs covering the attribute
  /// Planned intersection kernel for the level, shown by EXPLAIN:
  /// "drain" (single participant: bulk block copies) or "gallop"/"merge"
  /// (the SIMD-dispatched intersection kernel, strategy picked from the
  /// static cardinality skew). Like the lead, the executor re-decides
  /// per prefix from the live span sizes; this is the a-priori choice.
  std::string kernel;
};

/// A fully prepared query: the immutable output of PrepareXJoin.
/// Holds pointers into the caller's storage (Relations, NodeIndexes) —
/// valid as long as that storage outlives the plan and is not mutated.
/// Safe to share across concurrent ExecutePlan calls (everything is
/// const after prepare); not copyable or movable (twig validators point
/// into the embedded query).
struct XJoinPlan {
  XJoinPlan() = default;
  XJoinPlan(const XJoinPlan&) = delete;
  XJoinPlan& operator=(const XJoinPlan&) = delete;

  /// The resolved query (relations + twigs + output attributes).
  MultiModelQuery query;

  /// The settings it was prepared with, normalised (num_threads >= 1,
  /// num_shards >= 0).
  PlanSettings settings;

  /// The chosen expansion order (PA) with its per-level rationale.
  std::vector<std::string> order;
  std::vector<PlanLevel> levels;

  /// One pinned relational input: trie levels follow the global order
  /// restricted to the relation's attributes.
  struct RelInput {
    std::string name;
    const Relation* relation = nullptr;
    std::vector<std::string> attrs;
    std::shared_ptr<const RelationTrie> trie;  ///< always set
    /// Pinned through the provider (the database cache — hit or
    /// freshly inserted) vs built privately for this plan.
    bool from_provider = false;
  };
  std::vector<RelInput> rel_inputs;

  /// Everything one twig contributes to execution.
  struct TwigExec {
    TwigDecomposition decomposition;
    std::vector<PathRelation> paths;
    /// Checks this twig's expanded rows in the final validation, only
    /// when the twig is not certified. The "validate.*" counters come
    /// from those calls alone.
    TwigStructureValidator validator;
    /// Twig node id -> position of its attribute in the global order.
    std::vector<size_t> order_pos_of_node;
    /// True when the join of the twig's path relations already proves an
    /// embedding for every expanded row (no cut A-D edge, and every node
    /// with two or more children has a value-unique tag), so ExecutePlan
    /// skips its final validation. Decided at prepare time against the
    /// document's NodeIndex.
    bool certified = false;
    /// EXPLAIN's account of that decision: "none (...)" or
    /// "final (...)", with the reason.
    std::string validation;

    explicit TwigExec(TwigStructureValidator v) : validator(std::move(v)) {}
  };
  std::vector<TwigExec> twigs;

  /// One twig path input ("twig<i>.P<j>"), never materialized:
  /// ExecutePlan navigates the document in place through a lazy cursor
  /// (PathRelation::NewLazyIterator).
  struct PathInput {
    std::string name;
    size_t twig_index = 0;
    size_t path_index = 0;
    std::vector<std::string> attrs;
    std::string signature;  ///< PathSignature(), shown by EXPLAIN
  };
  std::vector<PathInput> path_inputs;

  /// Pin statistics (EXPLAIN): tries obtained through the provider
  /// (cache hits or fresh inserts — the db counters split those) vs
  /// built privately for this plan.
  int64_t tries_provider = 0;
  int64_t tries_built = 0;

  // --- filled by the caching layer (MultiModelDatabase), unused by the
  //     free-standing pipeline ---
  struct SourceVersion {
    std::string name;
    bool is_document = false;
    uint64_t version = 0;
  };
  std::vector<SourceVersion> sources;  ///< input versions at prepare time
  /// Snapshot pins: shared_ptr handles to the registry storage the raw
  /// pointers above (RelInput::relation, the validators' NodeIndexes)
  /// point into. Filled by the caching layer from the session snapshot
  /// so a plan stays executable after a writer copy-on-swaps the
  /// registry entry out from under it.
  std::vector<std::shared_ptr<const void>> pins;
};

/// Stable identity of one decomposed twig path inside its document:
/// "tag:attr" per level, '/'-joined (tags disambiguate same-named
/// attributes across twigs; attributes capture aliasing).
std::string PathSignature(const Twig& twig, const TwigPath& path);

/// Fingerprint of every PlanSettings field — the second half of the
/// database's plan-cache key, so e.g. num_threads and num_shards
/// variants get distinct plans. Settings that prepare the same plan
/// share it: every num_threads <= 1, and every num_shards <= 0.
size_t PlanFingerprint(const PlanSettings& settings);

/// Prepares `query`: validates it, chooses the expansion order (with
/// per-level lead rationale), decomposes twigs into lazy path
/// relations, and pins relation tries through the provider or private
/// builds. O(planning) only — no expansion runs. Returns the budget's
/// Status as soon as services.budget is violated (checked before every
/// trie pin). Records "plan.prepared" and "plan.prepare_micros" on
/// services.metrics. The returned plan is mutable only so the caching
/// layer can attach versions; treat it as const afterwards.
Result<std::shared_ptr<XJoinPlan>> PrepareXJoin(
    const MultiModelQuery& query, const PlanSettings& settings = {},
    const EngineServices& services = {});

/// Renders the plan for EXPLAIN: inputs and their transform(Sx)
/// decompositions, the expansion order with per-level bound rationale,
/// pinned-trie cache provenance, the requested shard count with the
/// level-0 lead it is cut from, and the Equation-1
/// worst-case size bound (chain-count path sizes, enumeration-free).
std::string ExplainPlan(const XJoinPlan& plan);

}  // namespace xjoin

#endif  // XJOIN_CORE_PLAN_H_
