#include "core/generic_join.h"

#include <algorithm>
#include <atomic>
#include <limits>
#include <utility>

#include "common/executor.h"
#include "common/fault.h"
#include "relational/intersect_kernels.h"
#include "relational/schema.h"

namespace xjoin {

namespace {

// Per depth: the indices of the inputs that participate in the
// attribute bound at that depth.
using LevelPlan = std::vector<std::vector<size_t>>;

// Keys the deepest level drains per kernel call (or per span copy for a
// one-input level) before it appends them and polls the budget. 1024
// keys keep the drain buffer (8 KiB) inside L1/L2. Results and counters
// do not depend on it: every seek is counted once per kernel step.
constexpr size_t kDrainBlock = 1024;

// A slice of the expansion space: a half-open range of level-0 keys.
struct KeyRange {
  int64_t lo;  // inclusive
  bool has_hi;
  int64_t hi;  // exclusive
};

// Range s of the cuts.size() + 1 ascending ranges the cut keys make:
// [cuts[s - 1], cuts[s]), unbounded below for the first range and
// above for the last, so one range with no cuts is the whole key space.
KeyRange RangeOf(const std::vector<int64_t>& cuts, size_t s) {
  return KeyRange{s > 0 ? cuts[s - 1] : std::numeric_limits<int64_t>::min(),
                  s < cuts.size(), s < cuts.size() ? cuts[s] : 0};
}

// The raw counters engine runs accumulate; the workers' counters are
// summed after the join barrier and published once.
struct JoinCounters {
  std::vector<int64_t> level_totals;  // bindings per level
  int64_t seeks = 0;
  int64_t total_intermediate = 0;
  int64_t cancel_checks = 0;

  void Add(const JoinCounters& other) {
    for (size_t d = 0; d < other.level_totals.size(); ++d) {
      level_totals[d] += other.level_totals[d];
    }
    seeks += other.seeks;
    total_intermediate += other.total_intermediate;
    cancel_checks += other.cancel_checks;
  }
};

// The iterative (explicit-stack) expansion loop of Algorithm 1 over one
// key range. Opening a level pushes, per participant, a cursor over the
// span its TrieIterator returns for the key the input is bound to one
// trie level up. Every level is then a leapfrog intersection of its
// cursors through the kernel's resumable Drain: one key at a time
// above the deepest level, whole blocks at the deepest, each appended
// straight into the result as a run under the bound prefix. All mutable
// state lives in this object, so one Engine per worker, each over its
// own iterators, is data-race-free by construction. One engine may run
// several ranges in turn; its counters then sum exactly as separate
// engines' would. The engine only accumulates raw counters; the driver
// merges and publishes them.
class Engine {
 public:
  // Reads the inputs' own iterators, or, with `clone`, a Clone() of
  // each that the engine owns.
  Engine(const std::vector<JoinInput>& inputs, bool clone,
         const LevelPlan& plan, BudgetTracker* budget)
      : budget_(budget != nullptr && budget->limited() ? budget : nullptr),
        count_cancel_(budget_ != nullptr && budget_->has_cancel()),
        row_bytes_(static_cast<int64_t>(plan.size()) * 8),
        prefix_(plan.size(), 0),
        kernel_buf_(kDrainBlock),
        levels_(plan.size()),
        bound_(inputs.size(), nullptr) {
    if (clone) {
      for (const JoinInput& in : inputs) owned_.push_back(in.iterator->Clone());
    }
    for (size_t d = 0; d < plan.size(); ++d) {
      for (size_t i : plan[d]) {
        TrieIterator* iter = clone ? owned_[i].get() : inputs[i].iterator;
        levels_[d].parts.push_back(Part{iter, i});
      }
      levels_[d].cursors.resize(plan[d].size());
    }
    counters_.level_totals.assign(plan.size(), 0);
  }

  // Expands `range` and appends its rows to `out`.
  void Run(const KeyRange& range, Relation* out) {
    out_ = out;
    const size_t num_levels = levels_.size();
    size_t depth = 0;
    bool entering = true;
    for (;;) {
      // Admission budget: sample the deadline periodically, poll the
      // shared violation flag — which also observes the query's
      // cancellation token — every binding so all workers abort fast.
      // Partial output is discarded by the driver, so an early break
      // needs no iterator cleanup; the violation is sticky, so a later
      // Run on this engine stops here before opening anything.
      if (budget_ != nullptr) {
        if ((++budget_ticks_ & 4095) == 0) {
          budget_->CheckDeadline();
          // Observer-only fault site: lets tests trigger (e.g.) a
          // cancel deterministically mid-expansion. Never fails.
          (void)XJOIN_FAULT("gj.tick");
        }
        if (count_cancel_) ++counters_.cancel_checks;
        if (budget_->violated()) break;
      }
      if (entering) OpenLevel(depth, range);
      if (depth + 1 == num_levels) {
        // Only ever entered: drained in one go, then closed.
        DrainDeepest(depth, range);
      } else if (Bind(depth, entering, range)) {
        entering = true;
        ++depth;
        continue;
      }
      // Level done: close it and backtrack.
      CloseLevel(depth);
      if (depth == 0) break;
      --depth;
      entering = false;
    }
  }

  JoinCounters& counters() { return counters_; }

 private:
  // One participant of a level: its iterator, its input index, and,
  // while the level is open, the input's cursor one trie level up (null
  // at the root).
  struct Part {
    TrieIterator* iter;
    size_t input;
    const KeyCursor* parent = nullptr;
  };

  // The participants of one level, lead first, with their cursors kept
  // contiguous for the kernel.
  struct Level {
    std::vector<Part> parts;
    std::vector<KeyCursor> cursors;  // parallel to parts
    IntersectStrategy strategy = IntersectStrategy::kGallop;
  };

  // Opens the level in every participant (the root span, or the
  // children of the key the input is bound to one trie level up), leads
  // with the smallest span — the kernel steps the lead, so the smallest
  // level drives the intersection — picks this open's seek strategy from
  // the cardinality skew, and skips to the shard's lower bound.
  void OpenLevel(size_t depth, const KeyRange& range) {
    Level& level = levels_[depth];
    size_t lead = 0;
    int64_t min_size = std::numeric_limits<int64_t>::max();
    int64_t max_size = 0;
    for (size_t p = 0; p < level.parts.size(); ++p) {
      Part& part = level.parts[p];
      part.parent = bound_[part.input];
      KeySpan span =
          part.iter->Open(part.parent == nullptr ? 0 : part.parent->pos);
      level.cursors[p] = KeyCursor{span.keys, span.lo, span.hi};
      const auto size = static_cast<int64_t>(span.size());
      if (size < min_size) lead = p;
      min_size = std::min(min_size, size);
      max_size = std::max(max_size, size);
    }
    if (lead != 0) {
      std::swap(level.parts[0], level.parts[lead]);
      std::swap(level.cursors[0], level.cursors[lead]);
    }
    for (size_t p = 0; p < level.parts.size(); ++p) {
      bound_[level.parts[p].input] = &level.cursors[p];
    }
    level.strategy =
        ChooseIntersectStrategy(level.parts.size(), min_size, max_size);
    KeyCursor& c = level.cursors[0];
    if (depth == 0) {
      // Pre-size the output columns from the lead's key count, capped so
      // selective joins don't over-allocate (growth stays geometric).
      constexpr size_t kMaxReserveRows = size_t{1} << 16;
      out_->Reserve(std::min(c.hi - c.pos, kMaxReserveRows));
    }
    if (depth == 0 && c.pos < c.hi && c.keys[c.pos] < range.lo) {
      c.pos = Seek(c.keys, c.pos, c.hi, range.lo, level.strategy);
      ++counters_.seeks;
    }
  }

  // Aligns the level on its first (`first`) or next common key within
  // the shard range and binds it; false when the level is exhausted.
  bool Bind(size_t depth, bool first, const KeyRange& range) {
    const bool has_hi = depth == 0 && range.has_hi;  // ranges cut level 0
    Level& level = levels_[depth];
    bool done;
    if (Drain(level.cursors.data(), level.cursors.size(), level.strategy,
              first, has_hi, range.hi, &prefix_[depth], 1, &counters_.seeks,
              &done) == 0) {
      return false;
    }
    ++counters_.level_totals[depth];
    ++counters_.total_intermediate;
    return true;
  }

  void CloseLevel(size_t depth) {
    for (const Part& part : levels_[depth].parts) {
      part.iter->Up();
      bound_[part.input] = part.parent;
    }
  }

  // Charges n freshly materialized output rows (n x 8*arity bytes)
  // against the admission budget; no-op when the query has none.
  void ChargeOutput(int64_t n) {
    if (budget_ != nullptr) budget_->ChargeRows(n, n * row_bytes_);
  }

  // Drains the entire deepest level for the current prefix, a block of
  // keys per kernel call, and appends each block to the result as one
  // run under the bound prefix, with a budget poll in between.
  void DrainDeepest(size_t depth, const KeyRange& range) {
    Level& level = levels_[depth];
    const bool has_hi = depth == 0 && range.has_hi;  // ranges cut level 0
    bool first = true;
    bool done = false;
    while (!done) {
      size_t n;
      const int64_t* keys;
      if (level.cursors.size() == 1) {
        // One participant is its own intersection: emit straight out of
        // the span. Each key stands for one lead step, as in the kernel.
        KeyCursor& c = level.cursors[0];
        size_t end = std::min(c.pos + kDrainBlock, c.hi);
        if (has_hi) end = LowerBound(c.keys, c.pos, end, range.hi);
        n = end - c.pos;
        keys = c.keys + c.pos;
        c.pos = end;
        counters_.seeks += static_cast<int64_t>(n);
        done = n < kDrainBlock;
      } else {
        n = Drain(level.cursors.data(), level.cursors.size(), level.strategy,
                  first, has_hi, range.hi, kernel_buf_.data(), kDrainBlock,
                  &counters_.seeks, &done);
        keys = kernel_buf_.data();
        first = false;
      }
      counters_.level_totals[depth] += static_cast<int64_t>(n);
      counters_.total_intermediate += static_cast<int64_t>(n);
      if (n > 0) {
        out_->AppendRun(prefix_, keys, n);
        ChargeOutput(static_cast<int64_t>(n));
      }
      if (budget_ != nullptr && budget_->violated()) return;
    }
  }

  // The inputs' clones, when the engine was built with `clone`.
  std::vector<std::unique_ptr<TrieIterator>> owned_;
  Relation* out_ = nullptr;
  BudgetTracker* budget_;   // null when the query has no finite budget
  bool count_cancel_;       // count cancellation polls (a token is attached)
  int64_t row_bytes_;       // bytes charged per materialized output row
  int64_t budget_ticks_ = 0;
  Tuple prefix_;
  JoinCounters counters_;
  std::vector<int64_t> kernel_buf_;  // multi-input drain destination
  std::vector<Level> levels_;
  std::vector<const KeyCursor*> bound_;  // per input: its deepest cursor
};

// Publishes the (merged) engine counters in one shape for serial and
// sharded runs.
void PublishMetrics(Metrics* metrics, const JoinCounters& counters,
                    int64_t output_rows) {
  if (metrics == nullptr) return;
  int64_t max_level = 0;
  for (size_t d = 0; d < counters.level_totals.size(); ++d) {
    metrics->Add("gj.level" + std::to_string(d) + ".bindings",
                 counters.level_totals[d]);
    max_level = std::max(max_level, counters.level_totals[d]);
  }
  metrics->RecordMax("gj.max_intermediate", max_level);
  metrics->Add("gj.total_intermediate", counters.total_intermediate);
  metrics->Add("gj.seeks", counters.seeks);
  metrics->Add("gj.output", output_rows);
  // Only cancellable queries count their polls, so runs without a token
  // keep an identical counter set.
  if (counters.cancel_checks > 0) {
    metrics->Add("gj.cancel_checks", counters.cancel_checks);
  }
}

// Cuts the root span of the level-0 lead — the smallest span, first on
// ties, which is the input OpenLevel leads level 0 with — into
// min(requested, span size) contiguous key ranges of near-equal size,
// and returns the first key of every range but the first. Opens level 0
// of the root-positioned inputs, copies only those boundary keys while
// the spans are open, and closes it again. Empty when the lead has fewer
// than two keys.
std::vector<int64_t> LeadCuts(const std::vector<JoinInput>& inputs,
                              const std::vector<size_t>& level0,
                              size_t requested) {
  std::vector<KeySpan> spans;
  spans.reserve(level0.size());
  size_t lead = 0;
  for (size_t p = 0; p < level0.size(); ++p) {
    spans.push_back(inputs[level0[p]].iterator->Open(0));
    if (spans[p].size() < spans[lead].size()) lead = p;
  }
  const KeySpan& span = spans[lead];
  const size_t count = std::min(requested, span.size());
  std::vector<int64_t> cuts;
  for (size_t s = 1; s < count; ++s) {
    cuts.push_back(span.keys[span.lo + s * span.size() / count]);
  }
  for (size_t i : level0) inputs[i].iterator->Up();
  return cuts;
}

}  // namespace

Result<Relation> GenericJoin(const std::vector<JoinInput>& inputs,
                             const GenericJoinOptions& options) {
  const auto& order = options.attribute_order;
  if (order.empty()) return Status::InvalidArgument("empty attribute order");

  // The cancellation token rides the budget: the per-binding violation
  // poll observes it for free.
  BudgetTracker* const budget = options.budget;

  // Admission: refuse to start a query whose deadline already passed,
  // whose budget a prior stage already exhausted (a multi-step caller —
  // e.g. XJoin's expansion + validation — shares one tracker), or that
  // was cancelled before it began.
  if (budget != nullptr) {
    budget->CheckDeadline();
    if (budget->violated()) return budget->status();
  }

  // Build the per-level plan and validate input orders.
  LevelPlan plan(order.size());
  for (size_t i = 0; i < inputs.size(); ++i) {
    const JoinInput& in = inputs[i];
    if (in.iterator == nullptr) {
      return Status::InvalidArgument("input " + in.name + " has no iterator");
    }
    if (static_cast<size_t>(in.iterator->arity()) != in.attributes.size()) {
      return Status::InvalidArgument("input " + in.name + " arity mismatch");
    }
    // The input's attribute sequence must be a subsequence-in-order of
    // the global order: the engine opens the input's k-th trie level at
    // the k-th global level the input participates in.
    size_t seen = 0;
    for (size_t d = 0; d < order.size(); ++d) {
      if (seen < in.attributes.size() && in.attributes[seen] == order[d]) {
        plan[d].push_back(i);
        ++seen;
      }
    }
    if (seen != in.attributes.size()) {
      return Status::InvalidArgument(
          "input " + in.name +
          " attribute order is inconsistent with the global order");
    }
  }
  for (size_t d = 0; d < plan.size(); ++d) {
    if (plan[d].empty()) {
      return Status::InvalidArgument("attribute " + order[d] +
                                     " is covered by no input");
    }
  }

  XJ_ASSIGN_OR_RETURN(Schema schema, Schema::Make(order));
  Relation out(schema);

  // The ascending level-0 key ranges: the whole key space, or the ranges
  // between LeadCuts' cut keys when sharding is requested.
  const int num_threads = std::max(1, options.num_threads);
  const int requested_shards =
      options.num_shards > 0 ? options.num_shards : num_threads;
  std::vector<int64_t> cuts;
  if (requested_shards > 1) {
    cuts = LeadCuts(inputs, plan[0], static_cast<size_t>(requested_shards));
  }
  const size_t num_ranges = cuts.size() + 1;

  // One engine per worker slot. One worker reads the caller's
  // iterators. With more, every slot clones each input: slot 0 here,
  // every other slot on the worker that claims it, on that thread's
  // heap. At 4 threads that measured faster than slot 0 on the caller's
  // iterators, or than every clone made here back to back.
  const int workers = ParallelWorkerCount(num_threads, num_ranges, 1);
  Engine first(inputs, /*clone=*/workers > 1, plan, budget);
  std::vector<std::unique_ptr<Engine>> others(
      static_cast<size_t>(workers - 1));

  // On one worker the ranges run in order straight into `out`. With
  // more, range s fills parts[s], merged below in range order.
  std::vector<Relation> parts;
  if (workers > 1) {
    // Fault site: the executor hand-off.
    if (XJOIN_FAULT("gj.shard_dispatch")) {
      return Status::Internal(
          "fault injection: shard dispatch to the executor failed "
          "(site gj.shard_dispatch)");
    }
    parts.reserve(num_ranges);
    for (size_t s = 0; s < num_ranges; ++s) parts.emplace_back(schema);
  }

#ifdef XJOIN_FAULTS_ENABLED
  // Fault site: the per-range morsel hand-off. A hit makes the worker
  // drop that range's work on the floor (the morsel "ran" but produced
  // nothing), which the barrier below converts into a typed failure —
  // exercising the executor path where a shard silently vanishes.
  std::atomic<bool> morsel_dropped{false};
#endif
  auto run_range = [&](int slot, size_t s) {
#ifdef XJOIN_FAULTS_ENABLED
    if (workers > 1 && XJOIN_FAULT("gj.morsel")) {
      morsel_dropped.store(true, std::memory_order_relaxed);
      return;
    }
#endif
    Engine* engine = &first;
    if (slot > 0) {
      std::unique_ptr<Engine>& own = others[static_cast<size_t>(slot - 1)];
      if (own == nullptr) {
        own = std::make_unique<Engine>(inputs, /*clone=*/true, plan, budget);
      }
      engine = own.get();
    }
    engine->Run(RangeOf(cuts, s), workers == 1 ? &out : &parts[s]);
  };
  // Each range is one morsel of a job on the shared executor pool, run
  // inline on the caller when one worker runs. A shared budget tracker
  // aborts every worker once any trips a ceiling or sees a cancellation.
  // The callable holds one reference, so std::function needs no heap.
  Executor::Default()->ParallelForWorker(
      num_threads, num_ranges, /*grain=*/1,
      [&run_range](int slot, size_t s) { run_range(slot, s); });
  if (budget != nullptr && budget->violated()) return budget->status();
#ifdef XJOIN_FAULTS_ENABLED
  if (morsel_dropped.load(std::memory_order_relaxed)) {
    return Status::Internal(
        "fault injection: morsel hand-off dropped shard work "
        "(site gj.morsel)");
  }
#endif

  // The other workers' counters sum into slot 0's.
  JoinCounters& counters = first.counters();
  for (const std::unique_ptr<Engine>& engine : others) {
    if (engine != nullptr) counters.Add(engine->counters());
  }
  if (workers > 1) {
    // Fault site: the result merge, after every range completed.
    if (XJOIN_FAULT("gj.result_merge")) {
      return Status::Internal(
          "fault injection: shard result merge failed "
          "(site gj.result_merge)");
    }
    // Ranges ascend, so appending the parts in range order reproduces
    // the one-worker row order exactly.
    size_t rows = 0;
    for (const Relation& part : parts) rows += part.num_rows();
    out.Reserve(rows);
    for (const Relation& part : parts) out.AppendRows(part);
  }
  PublishMetrics(options.metrics, counters,
                 static_cast<int64_t>(out.num_rows()));
  if (requested_shards > 1) {
    MetricsAdd(options.metrics, "gj.shards", static_cast<int64_t>(num_ranges));
  }
  return out;
}

}  // namespace xjoin
