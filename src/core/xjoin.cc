#include "core/xjoin.h"

#include <algorithm>
#include <memory>
#include <vector>

#include "common/executor.h"
#include "common/logging.h"
#include "core/generic_join.h"
#include "core/validate.h"
#include "relational/trie.h"

namespace xjoin {

namespace {

// True when the rows of `rel` ascend strictly in lexicographic (schema)
// order: GenericJoin's output contract, which the projection relies on.
bool StrictlyAscending(const Relation& rel) {
  const size_t k = rel.num_columns();
  for (size_t r = 1; r < rel.num_rows(); ++r) {
    size_t c = 0;
    while (c < k && rel.at(r - 1, c) == rel.at(r, c)) ++c;
    if (c == k || rel.at(r - 1, c) > rel.at(r, c)) return false;
  }
  return true;
}

// Appends columns `cols` of the rows of `in` that `keep` marks (every
// row when `keep` is empty) to `out`, in row order, with one
// AppendColumnBlock per run of consecutive copied rows. With
// `drop_repeats`, a row whose `cols` equal those of the previous marked
// row is skipped — on rows sorted by a column sequence that `cols` is a
// prefix of, that removes every duplicate.
void GatherRows(const Relation& in, const std::vector<size_t>& cols,
                const std::vector<uint8_t>& keep, bool drop_repeats,
                Relation* out) {
  std::vector<const int64_t*> src(cols.size());
  auto flush = [&](size_t begin, size_t end) {
    if (begin == end) return;
    for (size_t c = 0; c < cols.size(); ++c) {
      src[c] = in.column(cols[c]).data() + begin;
    }
    out->AppendColumnBlock(src.data(), end - begin);
  };
  const size_t n = in.num_rows();
  size_t run_begin = 0;  // the pending run is [run_begin, r)
  bool have_prev = false;
  size_t prev = 0;
  for (size_t r = 0; r < n; ++r) {
    bool copy = keep.empty() || keep[r] != 0;
    if (copy && drop_repeats) {
      bool repeat = have_prev;
      for (size_t c = 0; repeat && c < cols.size(); ++c) {
        repeat = in.at(prev, cols[c]) == in.at(r, cols[c]);
      }
      have_prev = true;
      prev = r;
      copy = !repeat;
    }
    if (!copy) {
      flush(run_begin, r);
      run_begin = r + 1;
    }
  }
  flush(run_begin, n);
}

}  // namespace

Result<Relation> ExecutePlan(const XJoinPlan& plan,
                             const EngineServices& services) {
  const int num_threads = plan.settings.num_threads;
  Metrics* const metrics = services.metrics;
  // The cancellation token rides the budget, so the expansion loop and
  // the validation stage observe it through the one violated() poll.
  BudgetTracker* const budget = services.budget;

  // 1. Instantiate cursors: over the pinned tries for relations, then
  // lazy document cursors for twig paths, mirroring the plan's input
  // order.
  std::vector<JoinInput> inputs;
  std::vector<std::unique_ptr<TrieIterator>> iterators;
  inputs.reserve(plan.rel_inputs.size() + plan.path_inputs.size());
  iterators.reserve(plan.rel_inputs.size() + plan.path_inputs.size());
  for (const auto& rel : plan.rel_inputs) {
    iterators.push_back(rel.trie->NewIterator());
    inputs.push_back(JoinInput{rel.name, rel.attrs, iterators.back().get()});
  }
  for (const auto& path : plan.path_inputs) {
    iterators.push_back(
        plan.twigs[path.twig_index].paths[path.path_index].NewLazyIterator());
    inputs.push_back(JoinInput{path.name, path.attrs, iterators.back().get()});
  }

  // 2. Expansion (Algorithm 1's loop). The budget tracker (if any) is
  // shared with the engine, which charges every expanded row against it
  // and returns the typed violation Status here — expansion output
  // counts toward max_rows/max_bytes even though validation may later
  // discard most of it (the budget meters work, not final result size).
  GenericJoinOptions gj_options;
  gj_options.attribute_order = plan.order;
  gj_options.metrics = metrics;
  gj_options.num_threads = num_threads;
  gj_options.num_shards = plan.settings.num_shards;
  gj_options.budget = budget;
  XJ_ASSIGN_OR_RETURN(Relation expanded, GenericJoin(inputs, gj_options));
  XJ_DCHECK(StrictlyAscending(expanded))
      << "GenericJoin output is not strictly ascending by plan.order";
  MetricsAdd(metrics, "xjoin.expanded",
             static_cast<int64_t>(expanded.num_rows()));

  // 3. Final structural validation, of the twigs it can reject rows of:
  // a certified twig's expanded rows are all embeddings (see
  // CertifyTwig, core/plan.cc), and with every twig certified the stage
  // is skipped whole. Row checks are independent, so they run chunked
  // across the thread pool. Each worker owns a validation scratch, a
  // values buffer and a Metrics bag (merged after the barrier —
  // sub-counters stay exact), so checking a row allocates nothing once
  // the buffers have grown; the keep-mask is filled at disjoint indices.
  std::vector<const XJoinPlan::TwigExec*> to_validate;
  for (const XJoinPlan::TwigExec& exec : plan.twigs) {
    if (!exec.certified) to_validate.push_back(&exec);
  }
  const size_t num_rows = expanded.num_rows();
  std::vector<uint8_t> keep;  // empty: every row is kept
  size_t num_kept = num_rows;
  if (!to_validate.empty()) {
    constexpr size_t kGrain = 64;
    struct ValidationWorker {
      ValidationScratch scratch;
      std::vector<int64_t> values;
      Metrics metrics;
    };
    keep.assign(num_rows, 0);
    std::vector<ValidationWorker> workers(static_cast<size_t>(
        ParallelWorkerCount(num_threads, num_rows, kGrain)));
    Executor::Default()->ParallelForWorker(
        num_threads, num_rows, kGrain, [&](int worker, size_t r) {
          // Cancelled (or budget-tripped) mid-validation: skip the
          // remaining rows (the whole result is discarded below, so a
          // zero keep-bit is fine).
          if (budget != nullptr && budget->violated()) return;
          ValidationWorker& w = workers[static_cast<size_t>(worker)];
          Metrics* row_metrics = metrics != nullptr ? &w.metrics : nullptr;
          for (const XJoinPlan::TwigExec* exec : to_validate) {
            const size_t num_nodes = exec->order_pos_of_node.size();
            w.values.resize(num_nodes);
            for (size_t q = 0; q < num_nodes; ++q) {
              w.values[q] = expanded.at(r, exec->order_pos_of_node[q]);
            }
            if (!exec->validator.ExistsEmbedding(w.values, &w.scratch,
                                                 row_metrics)) {
              return;
            }
          }
          keep[r] = 1;
        });
    if (metrics != nullptr) {
      for (const ValidationWorker& w : workers) metrics->MergeFrom(w.metrics);
    }
    num_kept = static_cast<size_t>(std::count(keep.begin(), keep.end(), 1));
  }
  // Deadline/cancel check after the validation stage (its cost scales
  // with the expansion size, which the deadline is meant to bound).
  // Surviving rows were already charged as expansion output — no double
  // count.
  if (budget != nullptr) {
    budget->CheckDeadline();
    if (budget->violated()) return budget->status();
  }
  MetricsAdd(metrics, "xjoin.validated", static_cast<int64_t>(num_kept));
  if (metrics != nullptr) {
    metrics->RecordMax("xjoin.max_intermediate",
                       metrics->Get("gj.max_intermediate"));
  }

  // 4. Projection, fused with the gather of the kept rows: only output
  // columns are copied. The expanded rows ascend strictly by plan.order
  // and validation keeps a subset in order, so an output that is all of
  // plan.order is final as gathered, one that is a prefix of it only
  // drops adjacent repeats, and any other column list is sorted.
  const std::vector<std::string>& out_attrs =
      plan.query.output_attributes.empty() ? plan.order
                                           : plan.query.output_attributes;
  std::vector<size_t> cols;
  cols.reserve(out_attrs.size());
  bool prefix = true;
  for (const std::string& a : out_attrs) {
    int idx = expanded.schema().IndexOf(a);
    if (idx < 0) {
      return Status::InvalidArgument("project: unknown attribute " + a);
    }
    prefix = prefix && static_cast<size_t>(idx) == cols.size();
    cols.push_back(static_cast<size_t>(idx));
  }
  const bool whole = prefix && cols.size() == expanded.num_columns();
  if (whole && keep.empty()) return expanded;
  XJ_ASSIGN_OR_RETURN(Schema out_schema, Schema::Make(out_attrs));
  Relation result(std::move(out_schema));
  result.Reserve(num_kept);
  GatherRows(expanded, cols, keep, /*drop_repeats=*/prefix && !whole,
             &result);
  if (!prefix) result.SortAndDedup();
  return result;
}

Result<Relation> ExecuteXJoin(const MultiModelQuery& query,
                              const PlanSettings& settings,
                              const EngineServices& services) {
  XJ_ASSIGN_OR_RETURN(std::shared_ptr<XJoinPlan> plan,
                      PrepareXJoin(query, settings, services));
  return ExecutePlan(*plan, services);
}

}  // namespace xjoin
