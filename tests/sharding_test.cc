// Tests for the sharded generic-join executor and the TrieIterator
// Clone() contract: sharded runs must be byte-identical to serial runs
// on every workload, and every iterator implementation must produce
// root-positioned, independent clones.
#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/metrics.h"
#include "common/random.h"
#include "core/decompose.h"
#include "core/generic_join.h"
#include "core/virtual_relation.h"
#include "core/xjoin.h"
#include "relational/trie.h"
#include "tests/test_util.h"
#include "workload/adversarial.h"
#include "workload/paper_example.h"
#include "workload/xmark.h"
#include "xml/parser.h"

namespace xjoin {
namespace {

// Byte-identical: same schema, same rows, same row order.
void ExpectByteIdentical(const Relation& serial, const Relation& sharded) {
  ASSERT_EQ(serial.schema().attributes(), sharded.schema().attributes());
  ASSERT_EQ(serial.num_rows(), sharded.num_rows());
  EXPECT_EQ(serial.ToTuples(), sharded.ToTuples());
}

using testing::EnumerateTrie;

// Triangle join fixture R(A,B) ⋈ S(B,C) ⋈ T(A,C) over random data big
// enough that every shard count below gets a non-trivial key slice.
struct TriangleFixture {
  std::optional<RelationTrie> tr, ts, tt;
  std::unique_ptr<TrieIterator> ir, is, it;

  explicit TriangleFixture(int n) {
    auto mk = [](std::vector<Tuple> t, std::vector<std::string> attrs) {
      auto s = Schema::Make(attrs);
      return *Relation::FromTuples(*s, std::move(t));
    };
    std::vector<Tuple> r_rows, s_rows, t_rows;
    for (int i = 0; i < n; ++i) {
      for (int j = 0; j < n; ++j) {
        if ((i * 7 + j * 3) % 5 == 0) r_rows.push_back({i, j});
        if ((i * 5 + j * 2) % 4 == 0) s_rows.push_back({i, j});
        if ((i * 3 + j * 11) % 6 == 0) t_rows.push_back({i, j});
      }
    }
    tr = *RelationTrie::Build(mk(r_rows, {"A", "B"}), {"A", "B"});
    ts = *RelationTrie::Build(mk(s_rows, {"B", "C"}), {"B", "C"});
    tt = *RelationTrie::Build(mk(t_rows, {"A", "C"}), {"A", "C"});
    ir = tr->NewIterator();
    is = ts->NewIterator();
    it = tt->NewIterator();
  }

  std::vector<JoinInput> Inputs() {
    return {{"R", {"A", "B"}, ir.get()},
            {"S", {"B", "C"}, is.get()},
            {"T", {"A", "C"}, it.get()}};
  }
};

TEST(ShardedGenericJoinTest, ShardCountsMatchSerialByteForByte) {
  TriangleFixture fx(20);
  GenericJoinOptions serial_opts;
  serial_opts.attribute_order = {"A", "B", "C"};
  auto serial = GenericJoin(fx.Inputs(), serial_opts);
  ASSERT_TRUE(serial.ok()) << serial.status().ToString();
  ASSERT_GT(serial->num_rows(), 0u);

  for (int shards : {2, 3, 7, 16}) {
    for (int threads : {1, 4}) {
      GenericJoinOptions opts = serial_opts;
      opts.num_threads = threads;
      opts.num_shards = shards;
      auto sharded = GenericJoin(fx.Inputs(), opts);
      ASSERT_TRUE(sharded.ok()) << sharded.status().ToString();
      SCOPED_TRACE("shards=" + std::to_string(shards) +
                   " threads=" + std::to_string(threads));
      ExpectByteIdentical(*serial, *sharded);
    }
  }
}

TEST(ShardedGenericJoinTest, BindingCountersEqualSerialCounters) {
  TriangleFixture fx(20);
  GenericJoinOptions opts;
  opts.attribute_order = {"A", "B", "C"};
  Metrics serial_m;
  opts.metrics = &serial_m;
  ASSERT_TRUE(GenericJoin(fx.Inputs(), opts).ok());

  Metrics sharded_m;
  opts.metrics = &sharded_m;
  opts.num_threads = 4;
  ASSERT_TRUE(GenericJoin(fx.Inputs(), opts).ok());

  // Per-level binding counts are exact sums over shards.
  for (int d = 0; d < 3; ++d) {
    std::string name = "gj.level" + std::to_string(d) + ".bindings";
    EXPECT_EQ(sharded_m.Get(name), serial_m.Get(name)) << name;
  }
  EXPECT_EQ(sharded_m.Get("gj.total_intermediate"),
            serial_m.Get("gj.total_intermediate"));
  EXPECT_EQ(sharded_m.Get("gj.output"), serial_m.Get("gj.output"));
  EXPECT_GE(sharded_m.Get("gj.shards"), 2);
}

// Counts Clone() calls, its clones' included, in one shared counter.
class CloneCountingIterator : public TrieIterator {
 public:
  CloneCountingIterator(std::unique_ptr<TrieIterator> inner,
                        std::atomic<int>* clones)
      : inner_(std::move(inner)), clones_(clones) {}

  int arity() const override { return inner_->arity(); }
  KeySpan Open(size_t parent_pos) override { return inner_->Open(parent_pos); }
  void Up() override { inner_->Up(); }
  std::unique_ptr<TrieIterator> Clone() const override {
    clones_->fetch_add(1);
    return std::make_unique<CloneCountingIterator>(inner_->Clone(), clones_);
  }

 private:
  std::unique_ptr<TrieIterator> inner_;
  std::atomic<int>* clones_;
};

// Shards that run on one worker run in order on the caller's iterators:
// nothing is cloned, and rows and binding counters equal the serial
// run's. With more workers each worker clones every input once, however
// many shards there are.
TEST(ShardedGenericJoinTest, ShardsOnOneWorkerCloneNothing) {
  TriangleFixture fx(20);
  std::atomic<int> clones[3] = {0, 0, 0};  // per input
  CloneCountingIterator r(fx.ir->Clone(), &clones[0]);
  CloneCountingIterator s(fx.is->Clone(), &clones[1]);
  CloneCountingIterator t(fx.it->Clone(), &clones[2]);
  const std::vector<JoinInput> inputs{{"R", {"A", "B"}, &r},
                                      {"S", {"B", "C"}, &s},
                                      {"T", {"A", "C"}, &t}};
  GenericJoinOptions opts;
  opts.attribute_order = {"A", "B", "C"};
  Metrics serial_m;
  opts.metrics = &serial_m;
  auto serial = GenericJoin(inputs, opts);
  ASSERT_TRUE(serial.ok()) << serial.status().ToString();
  ASSERT_GT(serial->num_rows(), 0u);

  for (int shards : {2, 3, 7, 16}) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    for (auto& c : clones) c = 0;
    Metrics m;
    opts.metrics = &m;
    opts.num_threads = 1;
    opts.num_shards = shards;
    auto sharded = GenericJoin(inputs, opts);
    ASSERT_TRUE(sharded.ok()) << sharded.status().ToString();
    for (const auto& c : clones) EXPECT_EQ(c.load(), 0);
    ExpectByteIdentical(*serial, *sharded);
    for (const char* name :
         {"gj.level0.bindings", "gj.level1.bindings", "gj.level2.bindings",
          "gj.total_intermediate", "gj.max_intermediate", "gj.output"}) {
      EXPECT_EQ(m.Get(name), serial_m.Get(name)) << name;
    }
    EXPECT_EQ(m.Get("gj.shards"), shards);
  }

  for (auto& c : clones) c = 0;
  opts.metrics = nullptr;
  opts.num_threads = 4;
  opts.num_shards = 16;
  auto parallel = GenericJoin(inputs, opts);
  ASSERT_TRUE(parallel.ok()) << parallel.status().ToString();
  for (const auto& c : clones) EXPECT_LE(c.load(), 4);  // one per worker
  ExpectByteIdentical(*serial, *parallel);
}

TEST(ShardedGenericJoinTest, MoreShardsThanKeysDegradesGracefully) {
  TriangleFixture fx(6);
  GenericJoinOptions serial_opts;
  serial_opts.attribute_order = {"A", "B", "C"};
  auto serial = GenericJoin(fx.Inputs(), serial_opts);
  ASSERT_TRUE(serial.ok());

  GenericJoinOptions opts = serial_opts;
  opts.num_threads = 4;
  opts.num_shards = 1000;  // far more than distinct level-0 keys
  auto sharded = GenericJoin(fx.Inputs(), opts);
  ASSERT_TRUE(sharded.ok());
  ExpectByteIdentical(*serial, *sharded);
}

// GenericJoin's output contract (generic_join.h): rows ascend strictly
// in lexicographic attribute_order order, i.e. sorted and distinct —
// what lets ExecutePlan's projection skip its sort. Checked on random
// inputs at every shard count.
TEST(GenericJoinContractTest, OutputStrictlyAscendingOnGeneratedInputs) {
  for (uint64_t seed = 1; seed <= 3; ++seed) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    Rng rng(seed);
    Dictionary dict;
    // R(A,B,C) x S(B,D) x T(A,D): cyclic, four output levels, and bag
    // inputs (random rows repeat) that the tries fold to sets.
    Relation r = testing::RandomRelation(&rng, &dict, {"A", "B", "C"}, 400, 10);
    Relation s = testing::RandomRelation(&rng, &dict, {"B", "D"}, 60, 10);
    Relation t = testing::RandomRelation(&rng, &dict, {"A", "D"}, 60, 10);
    auto tr = RelationTrie::Build(r, {"A", "B", "C"});
    auto ts = RelationTrie::Build(s, {"B", "D"});
    auto tt = RelationTrie::Build(t, {"A", "D"});
    ASSERT_TRUE(tr.ok() && ts.ok() && tt.ok());
    auto ir = tr->NewIterator();
    auto is = ts->NewIterator();
    auto it = tt->NewIterator();
    std::vector<JoinInput> inputs{{"R", {"A", "B", "C"}, ir.get()},
                                  {"S", {"B", "D"}, is.get()},
                                  {"T", {"A", "D"}, it.get()}};
    for (int shards : {1, 2, 4, 7}) {
      SCOPED_TRACE("shards=" + std::to_string(shards));
      GenericJoinOptions opts;
      opts.attribute_order = {"A", "B", "C", "D"};
      opts.num_shards = shards;
      auto out = GenericJoin(inputs, opts);
      ASSERT_TRUE(out.ok()) << out.status().ToString();
      ASSERT_GT(out->num_rows(), 1u);
      std::vector<Tuple> rows = out->ToTuples();
      for (size_t i = 1; i < rows.size(); ++i) {
        ASSERT_LT(rows[i - 1], rows[i]) << "rows " << i - 1 << ", " << i;
      }
    }
  }
}

TEST(ShardedGenericJoinTest, EmptyIntersectionYieldsEmptyResult) {
  auto mk = [](std::vector<Tuple> t, std::vector<std::string> attrs) {
    auto s = Schema::Make(attrs);
    return *Relation::FromTuples(*s, std::move(t));
  };
  Relation r = mk({{0, 1}, {1, 2}}, {"A", "B"});
  Relation t = mk({{5, 7}, {6, 8}}, {"A", "C"});  // disjoint A domain
  auto tr = RelationTrie::Build(r, {"A", "B"});
  auto tt = RelationTrie::Build(t, {"A", "C"});
  auto ir = tr->NewIterator();
  auto it = tt->NewIterator();
  GenericJoinOptions opts;
  opts.attribute_order = {"A", "B", "C"};
  opts.num_threads = 4;
  auto result = GenericJoin(
      {{"R", {"A", "B"}, ir.get()}, {"T", {"A", "C"}, it.get()}}, opts);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->num_rows(), 0u);
}

TEST(ShardedGenericJoinTest, ShardedRunIsDeterministic) {
  TriangleFixture fx(20);
  GenericJoinOptions opts;
  opts.attribute_order = {"A", "B", "C"};
  opts.num_threads = 4;
  auto a = GenericJoin(fx.Inputs(), opts);
  auto b = GenericJoin(fx.Inputs(), opts);
  ASSERT_TRUE(a.ok() && b.ok());
  ExpectByteIdentical(*a, *b);
}

// --- XJoin-level equivalence on the seed workloads -----------------------

void ExpectShardedXJoinMatchesSerial(const MultiModelQuery& query,
                                     PlanSettings base) {
  base.num_threads = 1;
  base.num_shards = 0;
  auto serial = ExecuteXJoin(query, base);
  ASSERT_TRUE(serial.ok()) << serial.status().ToString();
  for (int threads : {2, 4}) {
    for (int shards : {0, 3}) {
      PlanSettings opts = base;
      opts.num_threads = threads;
      opts.num_shards = shards;
      auto sharded = ExecuteXJoin(query, opts);
      ASSERT_TRUE(sharded.ok()) << sharded.status().ToString();
      SCOPED_TRACE("threads=" + std::to_string(threads) +
                   " shards=" + std::to_string(shards));
      ExpectByteIdentical(*serial, *sharded);
    }
  }
}

TEST(ShardedXJoinTest, PaperExampleWorkloads) {
  for (PaperSchema schema :
       {PaperSchema::kExample33, PaperSchema::kExample34}) {
    for (PaperDataMode mode :
         {PaperDataMode::kAdversarial, PaperDataMode::kRandom}) {
      PaperInstance inst = MakePaperInstance(5, schema, mode);
      MultiModelQuery q = inst.Query();
      ExpectShardedXJoinMatchesSerial(q, PlanSettings{});
    }
  }
}

TEST(ShardedXJoinTest, AdversarialAgmTightWorkload) {
  auto inst = MakeAgmTightInstance({{"A", "B"}, {"B", "C"}, {"C", "A"}}, 64);
  ASSERT_TRUE(inst.ok());
  MultiModelQuery q;
  for (size_t i = 0; i < inst->relations.size(); ++i) {
    q.relations.push_back(
        {"R" + std::to_string(i + 1), inst->relations[i].get()});
  }
  ExpectShardedXJoinMatchesSerial(q, PlanSettings{});
}

TEST(ShardedXJoinTest, XMarkWorkloads) {
  XMarkOptions opts;
  opts.num_items = 40;
  opts.num_persons = 25;
  opts.num_open_auctions = 30;
  opts.num_closed_auctions = 25;
  XMarkInstance inst = MakeXMark(opts);
  for (MultiModelQuery q :
       {inst.ClosedAuctionQuery(), inst.OpenAuctionQuery()}) {
    ExpectShardedXJoinMatchesSerial(q, PlanSettings{});
  }
}

// --- Clone() conformance -------------------------------------------------

// The contract every implementation must satisfy: a clone starts at the
// virtual root, enumerates the full trie, and leaves the original's
// cursor untouched (and vice versa).
void CheckCloneConformance(TrieIterator* original) {
  // A clone of a root-positioned iterator enumerates the same tuples.
  std::vector<Tuple> reference = EnumerateTrie(original);
  auto fresh = original->Clone();
  ASSERT_NE(fresh, nullptr);
  EXPECT_EQ(fresh->arity(), original->arity());
  EXPECT_EQ(EnumerateTrie(fresh.get()), reference);

  if (reference.empty()) return;

  // A clone taken with a level open is root-positioned and unaffected
  // by (and does not affect) the original's open span.
  KeySpan root = original->Open(0);
  ASSERT_GT(root.size(), 0u);
  const std::vector<int64_t> keys_before(root.keys + root.lo,
                                         root.keys + root.hi);
  auto mid = original->Clone();
  EXPECT_EQ(EnumerateTrie(mid.get()), reference);
  EXPECT_EQ(std::vector<int64_t>(root.keys + root.lo, root.keys + root.hi),
            keys_before);
  original->Up();
  EXPECT_EQ(EnumerateTrie(original), reference);

  // Clones of clones keep the contract.
  auto second = mid->Clone();
  EXPECT_EQ(EnumerateTrie(second.get()), reference);
}

TEST(CloneConformanceTest, RelationTrieIterator) {
  auto schema = Schema::Make({"A", "B", "C"});
  Relation rel(*schema);
  for (int i = 0; i < 6; ++i) {
    for (int j = 0; j < 4; ++j) rel.AppendRow({i, j, (i + j) % 3});
  }
  auto trie = RelationTrie::Build(rel, {"A", "B", "C"});
  ASSERT_TRUE(trie.ok());
  auto it = trie->NewIterator();
  CheckCloneConformance(it.get());
}

TEST(CloneConformanceTest, RelationTrieIteratorEmptyRelation) {
  auto schema = Schema::Make({"A"});
  Relation rel(*schema);
  auto trie = RelationTrie::Build(rel, {"A"});
  ASSERT_TRUE(trie.ok());
  auto it = trie->NewIterator();
  CheckCloneConformance(it.get());
}

TEST(CloneConformanceTest, LazyPathTrieIterator) {
  auto doc = ParseXml(
      "<r><a>1<b>x</b><b>y</b></a><a>2<b>x</b></a><a>3<b>z</b></a></r>");
  ASSERT_TRUE(doc.ok());
  Dictionary dict;
  NodeIndex index = NodeIndex::Build(&*doc, &dict);
  auto twig = Twig::Parse("a/b");
  ASSERT_TRUE(twig.ok());
  auto d = DecomposeTwig(*twig);
  ASSERT_TRUE(d.ok());
  auto rel = PathRelation::Make(*twig, d->paths[0], &index);
  ASSERT_TRUE(rel.ok());
  auto it = rel->NewLazyIterator();
  CheckCloneConformance(it.get());
}

}  // namespace
}  // namespace xjoin
