#include "core/xjoin.h"

#include <algorithm>
#include <memory>
#include <optional>
#include <vector>

#include "common/executor.h"
#include "core/generic_join.h"
#include "relational/operators.h"
#include "relational/trie.h"

namespace xjoin {

Result<Relation> ExecutePlan(const XJoinPlan& plan,
                             const XJoinOptions& options) {
  const int num_threads = plan.num_threads;

  // A cancellation token rides the budget tracker as a cancel source so
  // both the expansion loop and the validation stage observe it through
  // one violated() poll; a token without a caller budget gets a private
  // unlimited tracker. (The caller's tracker may carry further tokens —
  // session- and statement-scoped — attached upstream.)
  BudgetTracker local_budget;
  BudgetTracker* budget = options.budget;
  if (options.cancel != nullptr) {
    if (budget == nullptr) budget = &local_budget;
    budget->AddCancelSource(options.cancel);
  }

  // 1. Instantiate cursors over the pinned tries: relations first, then
  // twig paths, mirroring the plan's input order.
  std::vector<JoinInput> inputs;
  std::vector<std::unique_ptr<TrieIterator>> iterators;
  inputs.reserve(plan.rel_inputs.size() + plan.path_inputs.size());
  iterators.reserve(plan.rel_inputs.size() + plan.path_inputs.size());
  for (const auto& rel : plan.rel_inputs) {
    iterators.push_back(rel.trie->NewIterator());
    inputs.push_back(JoinInput{rel.name, rel.attrs, iterators.back().get()});
  }
  for (const auto& path : plan.path_inputs) {
    if (path.trie != nullptr) {
      iterators.push_back(path.trie->NewIterator());
    } else {
      iterators.push_back(plan.twigs[path.twig_index]
                              .paths[path.path_index]
                              .NewLazyIterator());
    }
    inputs.push_back(JoinInput{path.name, path.attrs, iterators.back().get()});
  }

  // 2. Optional partial structural validation during expansion. The
  // validators are stateless-const and shared across shard threads;
  // each invocation records into the engine's shard-local metrics bag,
  // merged at the join barrier — counters stay exact in parallel runs.
  GenericJoinOptions gj_options;
  gj_options.attribute_order = plan.order;
  gj_options.metrics = options.metrics;
  gj_options.num_threads = num_threads;
  gj_options.num_shards = plan.shard_plan.count;
  gj_options.shard_depth = plan.shard_plan.depth;
  gj_options.batch_size = plan.batch_size;
  gj_options.budget = budget;
  gj_options.executor = options.executor;
  if (plan.structural_pruning) {
    gj_options.prefix_filter = [&plan](size_t depth,
                                       const std::vector<int64_t>& prefix,
                                       Metrics* metrics) {
      for (size_t t = 0; t < plan.twigs.size(); ++t) {
        const XJoinPlan::TwigExec& exec = plan.twigs[t];
        const Twig& twig = plan.query.twigs[t].twig;
        // Only re-check when the newly bound attribute belongs to this
        // twig.
        bool relevant = false;
        std::vector<std::optional<int64_t>> values(twig.num_nodes());
        for (size_t q = 0; q < twig.num_nodes(); ++q) {
          size_t pos = exec.order_pos_of_node[q];
          if (pos <= depth) values[q] = prefix[pos];
          if (pos == depth) relevant = true;
        }
        if (!relevant) continue;
        if (!exec.validator.ExistsEmbedding(values, metrics)) {
          MetricsAdd(metrics, "xjoin.pruned", 1);
          return false;
        }
      }
      return true;
    };
  }

  // 3. Expansion (Algorithm 1's loop). The budget tracker (if any) is
  // shared with the engine, which charges every expanded row against it
  // and returns the typed violation Status here — expansion output
  // counts toward max_rows/max_bytes even though validation may later
  // discard most of it (the budget meters work, not final result size).
  XJ_ASSIGN_OR_RETURN(Relation expanded, GenericJoin(inputs, gj_options));
  MetricsAdd(options.metrics, "xjoin.expanded",
             static_cast<int64_t>(expanded.num_rows()));

  // 4. Final structural validation. Row checks are independent, so they
  // run chunked across the thread pool with one scratch Metrics per
  // worker (merged after the barrier — sub-counters stay exact); the
  // keep-mask is filled at disjoint indices and the surviving rows are
  // appended serially in row order, keeping the output deterministic.
  Relation validated(expanded.schema());
  if (plan.twigs.empty()) {
    validated = std::move(expanded);
  } else {
    const size_t num_rows = expanded.num_rows();
    constexpr size_t kGrain = 64;
    std::vector<uint8_t> keep(num_rows, 0);
    std::vector<Metrics> worker_metrics(
        options.metrics != nullptr
            ? static_cast<size_t>(
                  ParallelWorkerCount(num_threads, num_rows, kGrain))
            : 0);
    Executor* executor =
        options.executor != nullptr ? options.executor : Executor::Default();
    executor->ParallelForWorker(
        num_threads, num_rows, kGrain, [&](int worker, size_t r) {
          // Cancelled (or budget-tripped) mid-validation: skip the
          // remaining rows (the whole result is discarded below, so a
          // zero keep-bit is fine).
          if (budget != nullptr && budget->violated()) return;
          Metrics* metrics = worker_metrics.empty()
                                 ? nullptr
                                 : &worker_metrics[static_cast<size_t>(worker)];
          bool ok = true;
          for (size_t t = 0; t < plan.twigs.size(); ++t) {
            const XJoinPlan::TwigExec& exec = plan.twigs[t];
            const Twig& twig = plan.query.twigs[t].twig;
            std::vector<std::optional<int64_t>> values(twig.num_nodes());
            for (size_t q = 0; q < twig.num_nodes(); ++q) {
              values[q] = expanded.at(r, exec.order_pos_of_node[q]);
            }
            if (!exec.validator.ExistsEmbedding(values, metrics)) {
              ok = false;
              break;
            }
          }
          keep[r] = ok ? 1 : 0;
        });
    for (const Metrics& m : worker_metrics) options.metrics->MergeFrom(m);
    for (size_t r = 0; r < num_rows; ++r) {
      if (keep[r] != 0) validated.AppendRow(expanded.GetRow(r));
    }
  }
  // Deadline/cancel check after the validation stage (its cost scales
  // with the expansion size, which the deadline is meant to bound).
  // Surviving rows were already charged as expansion output — no double
  // count.
  if (budget != nullptr) {
    budget->CheckDeadline();
    if (budget->violated()) return budget->status();
  }
  MetricsAdd(options.metrics, "xjoin.validated",
             static_cast<int64_t>(validated.num_rows()));
  if (options.metrics != nullptr) {
    options.metrics->RecordMax("xjoin.max_intermediate",
                               options.metrics->Get("gj.max_intermediate"));
  }

  // 5. Projection.
  if (plan.query.output_attributes.empty()) return validated;
  return Project(validated, plan.query.output_attributes);
}

Result<Relation> ExecuteXJoin(const MultiModelQuery& query,
                              const XJoinOptions& options) {
  XJ_ASSIGN_OR_RETURN(std::shared_ptr<XJoinPlan> plan,
                      PrepareXJoin(query, options));
  return ExecutePlan(*plan, options);
}

}  // namespace xjoin
