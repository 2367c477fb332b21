#include "core/generic_join.h"

#include <algorithm>
#include <atomic>
#include <limits>
#include <utility>

#include "common/executor.h"
#include "common/fault.h"
#include "relational/intersect_kernels.h"
#include "relational/result_batch.h"
#include "relational/schema.h"

namespace xjoin {

namespace {

// Per depth: the indices of the inputs that participate in the
// attribute bound at that depth.
using LevelPlan = std::vector<std::vector<size_t>>;

// Restriction of the leading attributes to a lexicographic half-open
// prefix range; a shard's slice of the expansion space. `depth` is the
// number of constrained levels: 1 shards on level-0 keys alone, 2 on
// (level-0, level-1) composite prefixes — the fallback when the level-0
// key domain is smaller than the requested shard count. Unbounded by
// default (serial run).
struct PrefixRange {
  int depth = 1;
  bool has_lo = false;
  int64_t lo[2] = {0, 0};  // inclusive lexicographic lower bound
  bool has_hi = false;
  int64_t hi[2] = {0, 0};  // exclusive lexicographic upper bound
};

// The raw counters one engine run accumulates; shard runs are summed at
// the join barrier and published once.
struct JoinCounters {
  std::vector<int64_t> level_totals;  // bindings per level
  int64_t seeks = 0;
  int64_t total_intermediate = 0;
  int64_t cancel_checks = 0;

  void Add(const JoinCounters& other) {
    level_totals.resize(other.level_totals.size(), 0);
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
// cursors through the dispatched kernel's resumable drain: one key at
// a time above the deepest level, whole blocks at the deepest, staged
// in a columnar ResultBatch. Kernel seeks land where a scalar seek
// would and are counted once, so counters do not depend on the SIMD
// level or the batch size. All mutable state lives in this object, so
// one Engine per shard over Clone()d iterators is data-race-free by
// construction. The engine only accumulates raw counters; the driver
// merges and publishes them.
class Engine {
 public:
  Engine(const std::vector<JoinInput>& inputs, const LevelPlan& plan,
         Relation* out, int batch_size, BudgetTracker* budget)
      : out_(out),
        budget_(budget != nullptr && budget->limited() ? budget : nullptr),
        count_cancel_(budget_ != nullptr && budget_->has_cancel()),
        row_bytes_(static_cast<int64_t>(plan.size()) * 8),
        prefix_(plan.size(), 0),
        batch_(plan.size(), static_cast<size_t>(batch_size)),
        kernel_(&ActiveIntersectKernel()),
        kernel_buf_(static_cast<size_t>(batch_size)),
        levels_(plan.size()),
        bound_(inputs.size(), nullptr) {
    for (size_t d = 0; d < plan.size(); ++d) {
      for (size_t i : plan[d]) {
        levels_[d].parts.push_back(Part{inputs[i].iterator, i});
      }
      levels_[d].cursors.resize(plan[d].size());
    }
    counters_.level_totals.assign(plan.size(), 0);
  }

  void Run(const PrefixRange& range) {
    const size_t num_levels = levels_.size();
    size_t depth = 0;
    bool entering = true;
    for (;;) {
      // Admission budget: sample the deadline periodically, poll the
      // shared violation flag — which also observes the query's
      // cancellation token — every binding so all shards abort fast.
      // Partial output is discarded by the driver, so an early break
      // needs no iterator cleanup.
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
    batch_.Flush(out_);
  }

  const JoinCounters& counters() const { return counters_; }

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

  // The exclusive bound the shard range puts on keys at `depth` under
  // the bound prefix, if any. Ranges constrain levels 0 and 1 only.
  bool UpperBound(size_t depth, const PrefixRange& range, int64_t* hi) const {
    if (!range.has_hi || depth >= static_cast<size_t>(range.depth) ||
        (depth == 1 && prefix_[0] != range.hi[0])) {
      return false;
    }
    *hi = range.hi[depth];
    if (depth == 1 || range.depth == 1) return true;
    // Composite ranges: a level-0 key equal to hi[0] must still descend
    // (keys below hi[1] are ours), so level 0 is cut only past hi[0].
    *hi = range.hi[0] + 1;
    return range.hi[0] < std::numeric_limits<int64_t>::max();
  }

  // Opens the level in every participant (the root span, or the
  // children of the key the input is bound to one trie level up), leads
  // with the smallest span — the kernel steps the lead, so the smallest
  // level drives the intersection — picks this open's seek strategy from
  // the cardinality skew, and skips to the shard's lower bound.
  void OpenLevel(size_t depth, const PrefixRange& range) {
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
    const bool bounded =
        range.has_lo && (depth == 0 || (depth == 1 && range.depth == 2 &&
                                        prefix_[0] == range.lo[0]));
    if (bounded && c.pos < c.hi && c.keys[c.pos] < range.lo[depth]) {
      c.pos = kernel_->seek(c.keys, c.pos, c.hi, range.lo[depth],
                            level.strategy);
      ++counters_.seeks;
    }
  }

  // Aligns the level on its first (`first`) or next common key within
  // the shard range and binds it; false when the level is exhausted.
  bool Bind(size_t depth, bool first, const PrefixRange& range) {
    int64_t hi = 0;
    const bool has_hi = UpperBound(depth, range, &hi);
    Level& level = levels_[depth];
    bool done;
    if (kernel_->drain(level.cursors.data(), level.cursors.size(),
                       level.strategy, first, has_hi, hi, &prefix_[depth], 1,
                       &counters_.seeks, &done) == 0) {
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

  // Drains the entire deepest level for the current prefix, a batch of
  // keys per kernel call with a budget poll in between, and stages them
  // in bulk as columnar runs under the bound prefix.
  void DrainDeepest(size_t depth, const PrefixRange& range) {
    Level& level = levels_[depth];
    int64_t hi = 0;
    const bool has_hi = UpperBound(depth, range, &hi);
    const size_t cap = kernel_buf_.size();
    bool first = true;
    bool done = false;
    while (!done) {
      size_t n;
      const int64_t* keys;
      if (level.cursors.size() == 1) {
        // One participant is its own intersection: emit straight out of
        // the span. Each key stands for one lead step, as in the kernel.
        KeyCursor& c = level.cursors[0];
        size_t end = std::min(c.pos + cap, c.hi);
        if (has_hi) end = kernel_->lower_bound(c.keys, c.pos, end, hi);
        n = end - c.pos;
        keys = c.keys + c.pos;
        c.pos = end;
        counters_.seeks += static_cast<int64_t>(n);
        done = n < cap;
      } else {
        n = kernel_->drain(level.cursors.data(), level.cursors.size(),
                           level.strategy, first, has_hi, hi,
                           kernel_buf_.data(), cap, &counters_.seeks, &done);
        keys = kernel_buf_.data();
        first = false;
      }
      counters_.level_totals[depth] += static_cast<int64_t>(n);
      counters_.total_intermediate += static_cast<int64_t>(n);
      while (n > 0) {
        size_t take = std::min(n, batch_.capacity() - batch_.size());
        batch_.PushRun(prefix_, keys, take);
        ChargeOutput(static_cast<int64_t>(take));
        if (batch_.full()) batch_.Flush(out_);
        keys += take;
        n -= take;
      }
      if (budget_ != nullptr && budget_->violated()) return;
    }
  }

  Relation* out_;
  BudgetTracker* budget_;   // null when the query has no finite budget
  bool count_cancel_;       // count cancellation polls (a token is attached)
  int64_t row_bytes_;       // bytes charged per materialized output row
  int64_t budget_ticks_ = 0;
  Tuple prefix_;
  JoinCounters counters_;
  ResultBatch batch_;
  const IntersectKernel* kernel_;    // resolved once per engine
  std::vector<int64_t> kernel_buf_;  // drain destination, batch capacity
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

// Enumerates a shard partitioning domain — the distinct bindings of the
// first `levels` (1 or 2) attributes, lexicographically ascending — by
// running the engine over the plan truncated to those levels. Leaves
// every iterator back at the virtual root.
Relation PrefixDomain(const std::vector<JoinInput>& inputs,
                      const std::vector<std::string>& order,
                      const LevelPlan& plan, size_t levels, int batch_size,
                      int64_t* seeks) {
  const auto head = static_cast<ptrdiff_t>(levels);
  Relation domain(*Schema::Make(std::vector<std::string>(
      order.begin(), order.begin() + head)));
  Engine engine(inputs, LevelPlan(plan.begin(), plan.begin() + head),
                &domain, batch_size, nullptr);
  engine.Run(PrefixRange{});
  *seeks += engine.counters().seeks;
  return domain;
}

}  // namespace

Result<Relation> GenericJoin(const std::vector<JoinInput>& inputs,
                             const GenericJoinOptions& options) {
  const auto& order = options.attribute_order;
  if (order.empty()) return Status::InvalidArgument("empty attribute order");
  if (options.batch_size < 1) {
    return Status::InvalidArgument("batch_size must be >= 1");
  }

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

  const int num_threads = std::max(1, options.num_threads);
  const int requested_shards =
      options.num_shards > 0 ? options.num_shards : num_threads;

  // The serial engine over the whole key space; also the fallback when
  // the prefix domain is too small to shard.
  auto run_serial = [&]() -> Result<Relation> {
    Engine engine(inputs, plan, &out, options.batch_size, budget);
    engine.Run(PrefixRange{});
    if (budget != nullptr && budget->violated()) return budget->status();
    PublishMetrics(options.metrics, engine.counters(),
                   static_cast<int64_t>(out.num_rows()));
    return std::move(out);
  };
  if (requested_shards <= 1) return run_serial();

  // Sharded driver: partition the first attribute's matching keys into
  // contiguous ascending ranges, one per shard. At shard_depth 2 (and
  // when the order has a second attribute) shard on the
  // level-0 x level-1 composite prefix instead, so a small leading
  // domain does not degenerate to ~1 shard.
  int64_t plan_seeks = 0;
  Relation domain =
      PrefixDomain(inputs, order, plan, 1, options.batch_size, &plan_seeks);
  bool composite = options.shard_depth == 2 && plan.size() >= 2 &&
                   domain.num_rows() > 0;
  if (composite) {
    Relation pairs = PrefixDomain(inputs, order, plan, 2, options.batch_size,
                                  &plan_seeks);
    composite = pairs.num_rows() > 1;
    if (composite) domain = std::move(pairs);
  }
  const size_t num_shards =
      std::min<size_t>(static_cast<size_t>(requested_shards),
                       std::max<size_t>(domain.num_rows(), 1));

  auto publish_shards = [&](size_t count, int depth) {
    if (options.metrics == nullptr) return;
    options.metrics->Add("gj.shards", static_cast<int64_t>(count));
    options.metrics->Add("gj.shard_depth", depth);
    options.metrics->Add("gj.plan_seeks", plan_seeks);
  };
  if (num_shards <= 1) {
    // The prefix domain is too small to shard (0 or 1 distinct
    // prefixes): run serially instead of paying clone + merge overhead.
    Result<Relation> serial = run_serial();
    if (serial.ok()) publish_shards(1, 1);
    return serial;
  }

  struct Shard {
    std::vector<std::unique_ptr<TrieIterator>> owned;
    std::vector<JoinInput> inputs;
    PrefixRange range;
    Relation out;
    JoinCounters counters;

    explicit Shard(Schema s) : out(std::move(s)) {}
  };

  std::vector<Shard> shards;
  shards.reserve(num_shards);
  const size_t per_shard = domain.num_rows() / num_shards;
  const size_t remainder = domain.num_rows() % num_shards;
  const int range_depth = composite ? 2 : 1;
  size_t cursor = 0;
  for (size_t s = 0; s < num_shards; ++s) {
    Shard shard(schema);
    size_t take = per_shard + (s < remainder ? 1 : 0);
    shard.range.depth = range_depth;
    shard.range.has_lo = true;
    for (int c = 0; c < range_depth; ++c) {
      shard.range.lo[c] = domain.at(cursor, static_cast<size_t>(c));
    }
    cursor += take;
    if (cursor < domain.num_rows()) {
      shard.range.has_hi = true;
      for (int c = 0; c < range_depth; ++c) {
        shard.range.hi[c] = domain.at(cursor, static_cast<size_t>(c));
      }
    }
    shard.owned.reserve(inputs.size());
    shard.inputs.reserve(inputs.size());
    for (const JoinInput& in : inputs) {
      shard.owned.push_back(in.iterator->Clone());
      shard.inputs.push_back(
          JoinInput{in.name, in.attributes, shard.owned.back().get()});
    }
    shards.push_back(std::move(shard));
  }

  // Fault site: the executor hand-off. An armed hit fails the query
  // before any shard work is dispatched.
  if (XJOIN_FAULT("gj.shard_dispatch")) {
    return Status::Internal(
        "fault injection: shard dispatch to the executor failed "
        "(site gj.shard_dispatch)");
  }

  // Shards run as one morsel-driven job on the shared executor pool
  // (grain 1: each morsel is one shard), so N in-flight queries share
  // cores instead of each spawning num_threads threads. A shared budget
  // tracker aborts every shard once any of them trips a ceiling or sees
  // a cancellation.
  Executor* executor = Executor::Default();
#ifdef XJOIN_FAULTS_ENABLED
  // Fault site: the per-shard morsel hand-off. A hit makes the worker
  // drop that shard's work on the floor (the morsel "ran" but produced
  // nothing), which the barrier below converts into a typed failure —
  // exercising the executor path where a shard silently vanishes.
  std::atomic<bool> morsel_dropped{false};
#endif
  executor->ParallelFor(num_threads, shards.size(), /*grain=*/1,
                        [&](size_t s) {
#ifdef XJOIN_FAULTS_ENABLED
    if (XJOIN_FAULT("gj.morsel")) {
      morsel_dropped.store(true, std::memory_order_relaxed);
      return;
    }
#endif
    Shard& shard = shards[s];
    Engine engine(shard.inputs, plan, &shard.out, options.batch_size,
                  budget);
    engine.Run(shard.range);
    shard.counters = engine.counters();
  });
  if (budget != nullptr && budget->violated()) {
    return budget->status();
  }
#ifdef XJOIN_FAULTS_ENABLED
  if (morsel_dropped.load(std::memory_order_relaxed)) {
    return Status::Internal(
        "fault injection: morsel hand-off dropped shard work "
        "(site gj.morsel)");
  }
#endif

  // Fault site: the result merge. A hit fails the query after all shard
  // work completed but before any rows reach the caller.
  if (XJOIN_FAULT("gj.result_merge")) {
    return Status::Internal(
        "fault injection: shard result merge failed (site gj.result_merge)");
  }

  // Deterministic merge: shards cover ascending key ranges, so appending
  // in shard order reproduces the serial row order exactly.
  JoinCounters counters;
  for (Shard& shard : shards) {
    out.AppendRows(shard.out);
    counters.Add(shard.counters);
  }
  PublishMetrics(options.metrics, counters,
                 static_cast<int64_t>(out.num_rows()));
  publish_shards(num_shards, composite ? 2 : 1);
  return out;
}

}  // namespace xjoin
