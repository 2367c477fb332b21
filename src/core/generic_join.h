// The attribute-at-a-time worst-case-optimal join engine (Algorithm 1's
// expansion loop). Generic Join / Leapfrog Triejoin over any mix of
// TrieIterator implementations: materialized relational tries and lazy
// XML path tries both hand the engine the same thing — the sorted
// distinct keys of an open level as a span — which is what lets
// XJoin "expand attributes by satisfying common values and relations
// from all databases at the same time".
//
// Execution model: one iterative loop (no recursion) keeps a stack of
// key cursors per input, one cursor per open level. Each level is a
// leapfrog intersection of its participants' cursors through the one
// scalar kernel (relational/intersect_kernels.h); the deepest level
// drains whole blocks of keys and appends each straight into the result
// as a run under the bound prefix (Relation::AppendRun). The loop runs
// over ascending level-0 key ranges: the whole key space, or K ranges
// cut from the root span of the level-0 lead (the smallest one). One
// engine per worker runs its ranges in turn — on one worker in order,
// on the caller's iterators, straight into the result; with more, each
// worker clones every input once and the per-range parts are appended
// in range order — so the result is byte-identical to a one-range run.
#ifndef XJOIN_CORE_GENERIC_JOIN_H_
#define XJOIN_CORE_GENERIC_JOIN_H_

#include <memory>
#include <string>
#include <vector>

#include "common/budget.h"
#include "common/metrics.h"
#include "common/status.h"
#include "relational/relation.h"
#include "relational/trie_iterator.h"

namespace xjoin {

/// One join participant: a trie whose level order must equal the global
/// attribute order restricted to its attributes.
struct JoinInput {
  std::string name;                     ///< for diagnostics and metrics
  std::vector<std::string> attributes;  ///< trie level order
  TrieIterator* iterator = nullptr;     ///< positioned at the root
};

/// Engine options.
struct GenericJoinOptions {
  /// Global expansion order (the paper's PA). Every attribute of every
  /// input must appear exactly once.
  std::vector<std::string> attribute_order;
  /// Number of worker threads: the key ranges (see num_shards) run on
  /// up to this many workers of the shared Executor::Default() pool,
  /// the calling thread included. <= 1 runs every range on the caller.
  int num_threads = 1;
  /// Number of level-0 key-range shards. 0 means "= num_threads".
  /// Shards cover contiguous ranges of the level-0 lead's root span;
  /// the effective shard count is min(num_shards, its key count), and a
  /// lead of 0 or 1 keys runs as one range. Values > 1 with
  /// num_threads == 1 run the ranges in order on the caller, which
  /// tests the partition deterministically.
  int num_shards = 0;
  /// Optional per-query admission budget shared by every worker
  /// (nullable). The engine charges each materialized output row
  /// (rows x 8*arity bytes) against it, samples the deadline every few
  /// thousand bindings, and aborts all workers as soon as any ceiling is
  /// crossed or its cancel token is cancelled — GenericJoin
  /// then returns the tracker's typed Status (kResourceExhausted /
  /// kDeadlineExceeded / kCancelled) and discards partial rows. With no
  /// budget (or an unlimited one) results and counters are
  /// bit-identical to a budget-free run.
  BudgetTracker* budget = nullptr;
  /// Optional counters (nullable): per level "gj.level<i>.bindings" plus
  /// "gj.max_intermediate", "gj.total_intermediate", "gj.seeks",
  /// "gj.output". Runs that request more than one shard additionally
  /// record "gj.shards" (the effective shard count). The binding
  /// counters are exact sums over shards and equal the serial counts;
  /// each shard's lower-bound seek adds to "gj.seeks".
  Metrics* metrics = nullptr;
};

/// Runs the join and returns all result tuples over attribute_order.
/// Fails with kInvalidArgument when an attribute is covered by no input
/// or an input's attribute order is inconsistent with the global order.
/// Every thread and shard count produces the same Relation byte for
/// byte: shards cover contiguous ascending ranges of the first
/// attribute's keys and reach the result in shard order.
///
/// Output contract: the rows are sorted lexicographically by
/// attribute_order and contain no duplicates (every level enumerates
/// the sorted distinct keys of its intersection), at any thread and
/// shard count. XJoin's projection relies on it to skip its sort.
Result<Relation> GenericJoin(const std::vector<JoinInput>& inputs,
                             const GenericJoinOptions& options);

}  // namespace xjoin

#endif  // XJOIN_CORE_GENERIC_JOIN_H_
