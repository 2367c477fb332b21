// Deepest-level runs: the engine drains the deepest level for one bound
// prefix in blocks (span copies for one participant, the intersection
// kernel otherwise) and appends each block straight into the result as
// a run under that prefix (Relation::AppendRun). Runs of 0, 1, 1023,
// 1024, 1025 and 3,077 keys straddle the block boundary; every thread
// and shard count must return the rows a set_intersection / nested-loop
// oracle computes, with the binding counters of the one-thread run. A
// row budget below one run fails the whole query. Also covers the
// AppendRun / AppendColumnBlock substrate directly.
#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/budget.h"
#include "common/metrics.h"
#include "core/generic_join.h"
#include "relational/trie.h"

namespace xjoin {
namespace {

// --- substrate: AppendRun and AppendColumnBlock --------------------------

TEST(RelationTest, AppendRunMatchesAppendRow) {
  auto schema = Schema::Make({"A", "B", "C"});
  Relation by_row(*schema);
  Relation by_run(*schema);
  const std::vector<int64_t> keys = {1, 2, 5, 9};
  for (int64_t k : keys) by_row.AppendRow({7, 8, k});
  for (int64_t k : keys) by_row.AppendRow({7, 9, k});
  const Tuple prefix = {7, 8, 999};  // last entry unused
  by_run.AppendRun(prefix, keys.data(), 2);
  by_run.AppendRun(prefix, keys.data(), 0);  // empty run is a no-op
  by_run.AppendRun(prefix, keys.data() + 2, 2);
  by_run.AppendRun({7, 9}, keys.data(), keys.size());
  EXPECT_EQ(by_row.ToTuples(), by_run.ToTuples());

  // One column: the run is the keys alone.
  auto single = Schema::Make({"A"});
  Relation keys_only(*single);
  keys_only.AppendRun({}, keys.data(), keys.size());
  EXPECT_EQ(keys_only.ToTuples(), (std::vector<Tuple>{{1}, {2}, {5}, {9}}));
}

TEST(RelationTest, AppendColumnBlockMatchesAppendRow) {
  auto schema = Schema::Make({"A", "B"});
  Relation by_row(*schema);
  Relation by_block(*schema);
  by_block.Reserve(4);
  std::vector<int64_t> a = {1, 2, 3, 4};
  std::vector<int64_t> b = {9, 8, 7, 6};
  for (size_t i = 0; i < a.size(); ++i) by_row.AppendRow({a[i], b[i]});
  const int64_t* cols[] = {a.data(), b.data()};
  by_block.AppendColumnBlock(cols, 2);
  by_block.AppendColumnBlock(&cols[0], 0);  // empty block is a no-op
  const int64_t* rest[] = {a.data() + 2, b.data() + 2};
  by_block.AppendColumnBlock(rest, 2);
  EXPECT_EQ(by_row.ToTuples(), by_block.ToTuples());
}

// --- engine level: GenericJoin runs around the block boundary ------------

// Q(A,B,C) := R(A,B), S(B,C) [, T(B,C)] over A in [0, kNumA) and one B
// per entry of `run_lengths`. With S alone the deepest level C has one
// participant; with T it intersects S and T, whose C keys interleave:
// under B = b they share exactly run_lengths[b] keys, the multiples of
// 3, while S adds keys = 1 and T keys = 2 (mod 3) of its own. Either
// way every prefix (a, b) binds a deepest run of run_lengths[b] keys.
// One input cannot make a run of 0: every key of a trie level has at
// least one child.
struct RunFixture {
  static constexpr int64_t kNumA = 4;  // level-0 keys: room for 3 shards

  std::vector<int> run_lengths;
  bool two_inputs;
  std::vector<std::vector<int64_t>> s_keys, t_keys;  // per B, sorted
  std::optional<RelationTrie> tr, ts, tt;

  RunFixture(std::vector<int> lengths, bool two)
      : run_lengths(std::move(lengths)), two_inputs(two) {
    std::vector<Tuple> r_rows, s_rows, t_rows;
    for (int64_t a = 0; a < kNumA; ++a) {
      for (size_t b = 0; b < run_lengths.size(); ++b) {
        r_rows.push_back({a, static_cast<int64_t>(b)});
      }
    }
    for (size_t b = 0; b < run_lengths.size(); ++b) {
      const int64_t len = run_lengths[b];
      std::vector<int64_t> s, t;
      for (int64_t c = 0; c < len; ++c) {
        s.push_back(3 * c);
        t.push_back(3 * c);
      }
      if (two_inputs) {
        for (int64_t c = 0; c < len + 5; ++c) s.push_back(3 * c + 1);
        for (int64_t c = 0; c < len / 2 + 3; ++c) t.push_back(3 * c + 2);
      }
      std::sort(s.begin(), s.end());
      std::sort(t.begin(), t.end());
      for (int64_t c : s) s_rows.push_back({static_cast<int64_t>(b), c});
      for (int64_t c : t) t_rows.push_back({static_cast<int64_t>(b), c});
      s_keys.push_back(std::move(s));
      t_keys.push_back(std::move(t));
    }
    tr = *RelationTrie::Build(Make({"A", "B"}, std::move(r_rows)), {"A", "B"});
    ts = *RelationTrie::Build(Make({"B", "C"}, std::move(s_rows)), {"B", "C"});
    if (two_inputs) {
      tt = *RelationTrie::Build(Make({"B", "C"}, std::move(t_rows)),
                                {"B", "C"});
    }
  }

  static Relation Make(std::vector<std::string> attrs,
                       std::vector<Tuple> rows) {
    return *Relation::FromTuples(*Schema::Make(attrs), std::move(rows));
  }

  // The answer by nested loops over (a, b) and a set_intersection of
  // the deepest level's key lists, in (A, B, C) order.
  std::vector<Tuple> Oracle() const {
    std::vector<Tuple> rows;
    for (int64_t a = 0; a < kNumA; ++a) {
      for (size_t b = 0; b < run_lengths.size(); ++b) {
        std::vector<int64_t> run = s_keys[b];
        if (two_inputs) {
          run.clear();
          std::set_intersection(s_keys[b].begin(), s_keys[b].end(),
                                t_keys[b].begin(), t_keys[b].end(),
                                std::back_inserter(run));
        }
        EXPECT_EQ(run.size(), static_cast<size_t>(run_lengths[b]));
        for (int64_t c : run) rows.push_back({a, static_cast<int64_t>(b), c});
      }
    }
    return rows;
  }

  // Runs the join on fresh iterators.
  Result<Relation> Join(GenericJoinOptions options) const {
    auto ir = tr->NewIterator();
    auto is = ts->NewIterator();
    std::unique_ptr<TrieIterator> it;
    std::vector<JoinInput> inputs{{"R", {"A", "B"}, ir.get()},
                                  {"S", {"B", "C"}, is.get()}};
    if (two_inputs) {
      it = tt->NewIterator();
      inputs.push_back({"T", {"B", "C"}, it.get()});
    }
    options.attribute_order = {"A", "B", "C"};
    return GenericJoin(inputs, options);
  }
};

// The counters of the bindings each level made, which do not depend on
// how the level-0 keys are cut into shards (seeks do: every shard adds
// a lower-bound seek).
std::map<std::string, int64_t> BindingCounters(const Metrics& m) {
  std::map<std::string, int64_t> out;
  for (const auto& [name, value] : m.counters()) {
    if (name != "gj.seeks" && name != "gj.shards") out[name] = value;
  }
  return out;
}

void ExpectRunsMatchOracle(const RunFixture& fx) {
  const std::vector<Tuple> expected = fx.Oracle();
  Metrics serial_m;
  GenericJoinOptions serial;
  serial.metrics = &serial_m;
  auto reference = fx.Join(serial);
  ASSERT_TRUE(reference.ok()) << reference.status().ToString();
  EXPECT_EQ(reference->ToTuples(), expected);
  EXPECT_EQ(serial_m.Get("gj.output"), static_cast<int64_t>(expected.size()));

  for (int threads : {1, 4}) {
    for (int shards : {0, 3}) {
      SCOPED_TRACE("threads=" + std::to_string(threads) +
                   " shards=" + std::to_string(shards));
      Metrics m;
      GenericJoinOptions options;
      options.num_threads = threads;
      options.num_shards = shards;
      options.metrics = &m;
      auto joined = fx.Join(options);
      ASSERT_TRUE(joined.ok()) << joined.status().ToString();
      EXPECT_EQ(joined->ToTuples(), expected);
      EXPECT_EQ(BindingCounters(m), BindingCounters(serial_m));
    }
  }
}

const std::vector<int> kRunLengths = {0, 1, 1023, 1024, 1025, 3077};

TEST(RunLengthTest, OneInputRunsMatchOracle) {
  // Every length but 0, which one input cannot make (see RunFixture).
  ExpectRunsMatchOracle(RunFixture(
      std::vector<int>(kRunLengths.begin() + 1, kRunLengths.end()), false));
}

TEST(RunLengthTest, TwoOverlappingInputsRunsMatchOracle) {
  ExpectRunsMatchOracle(RunFixture(kRunLengths, true));
}

// A row budget below one run's length trips inside that run, between
// two drained blocks, and the query fails whole: no partial rows.
TEST(RunLengthTest, RowBudgetBelowOneRunFails) {
  for (bool two : {false, true}) {
    RunFixture fx({3077}, two);
    for (int64_t max_rows : {1, 1023, 2000}) {
      for (int threads : {1, 4}) {
        SCOPED_TRACE("two_inputs=" + std::to_string(two) +
                     " max_rows=" + std::to_string(max_rows) +
                     " threads=" + std::to_string(threads));
        BudgetTracker budget(max_rows, /*max_bytes=*/0,
                             /*deadline_micros=*/0);
        GenericJoinOptions options;
        options.num_threads = threads;
        options.budget = &budget;
        auto joined = fx.Join(options);
        ASSERT_FALSE(joined.ok());
        EXPECT_EQ(joined.status().code(), StatusCode::kResourceExhausted);
      }
    }
  }
}

}  // namespace
}  // namespace xjoin
