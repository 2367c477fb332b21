// Batch-size equivalence: the engine drains the deepest level in blocks
// of at most batch_size keys (bulk span copies for one participant, the
// intersection kernel otherwise) and stages rows in a columnar
// ResultBatch of that capacity. Every batch size must be
// indistinguishable from the one-row reference — byte-identical result
// relations and identical "gj." / "validate." / "xjoin." counters — on
// every workload, at every thread count. Also covers the ResultBatch /
// Relation::AppendColumnBlock substrate directly.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/metrics.h"
#include "core/generic_join.h"
#include "core/xjoin.h"
#include "relational/result_batch.h"
#include "relational/trie.h"
#include "tests/test_util.h"
#include "workload/adversarial.h"
#include "workload/paper_example.h"
#include "workload/xmark.h"

namespace xjoin {
namespace {

const std::vector<int> kBatchSizes = {1, 7, 1024};
const std::vector<int> kThreadCounts = {1, 4};

// The deterministic counter families that must match exactly between
// the reference and every batch size. Timing counters (plan.prepare_micros,
// trie.build_micros) are excluded by construction.
std::map<std::string, int64_t> DeterministicCounters(const Metrics& m) {
  std::map<std::string, int64_t> out;
  for (const auto& [name, value] : m.counters()) {
    if (name.rfind("gj.", 0) == 0 || name.rfind("validate.", 0) == 0 ||
        name.rfind("xjoin.", 0) == 0) {
      out[name] = value;
    }
  }
  return out;
}

void ExpectByteIdentical(const Relation& reference, const Relation& batched) {
  ASSERT_EQ(reference.schema().attributes(), batched.schema().attributes());
  ASSERT_EQ(reference.num_rows(), batched.num_rows());
  EXPECT_EQ(reference.ToTuples(), batched.ToTuples());
}

// --- substrate: ResultBatch and AppendColumnBlock ------------------------

TEST(ResultBatchTest, FlushPreservesRowOrderAndClears) {
  auto schema = Schema::Make({"A", "B"});
  Relation out(*schema);
  ResultBatch batch(2, 3);
  // Stages the one-row run (a, b).
  auto push = [&batch](int64_t a, int64_t b) { batch.PushRun({a, 0}, &b, 1); };
  EXPECT_TRUE(batch.empty());
  push(1, 10);
  push(2, 20);
  EXPECT_EQ(batch.size(), 2u);
  EXPECT_FALSE(batch.full());
  push(3, 30);
  EXPECT_TRUE(batch.full());
  batch.Flush(&out);
  EXPECT_TRUE(batch.empty());
  push(4, 40);
  batch.Flush(&out);
  batch.Flush(&out);  // empty flush is a no-op
  EXPECT_EQ(out.ToTuples(),
            (std::vector<Tuple>{{1, 10}, {2, 20}, {3, 30}, {4, 40}}));
}

TEST(ResultBatchTest, PushRunBroadcastsPrefixColumns) {
  auto schema = Schema::Make({"A", "B", "C"});
  Relation out(*schema);
  ResultBatch batch(3, 8);
  std::vector<int64_t> prefix = {7, 8, 999};  // last entry unused
  std::vector<int64_t> keys = {1, 2, 5};
  batch.PushRun(prefix, keys.data(), keys.size());
  batch.Flush(&out);
  EXPECT_EQ(out.ToTuples(),
            (std::vector<Tuple>{{7, 8, 1}, {7, 8, 2}, {7, 8, 5}}));
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

// --- engine level: GenericJoin over relation tries -----------------------

// Triangle join R(A,B) x S(B,C) x T(A,C): the deepest level has two CSR
// participants, so it drains through the intersection kernel.
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

TEST(BatchedGenericJoinTest, TriangleMatchesReferenceAtEveryBatchAndThread) {
  TriangleFixture fx(20);
  GenericJoinOptions ref_opts;
  ref_opts.attribute_order = {"A", "B", "C"};
  ref_opts.batch_size = 1;  // reference: one-row blocks
  Metrics ref_m;
  ref_opts.metrics = &ref_m;
  auto reference = GenericJoin(fx.Inputs(), ref_opts);
  ASSERT_TRUE(reference.ok()) << reference.status().ToString();
  ASSERT_GT(reference->num_rows(), 0u);

  for (int batch : kBatchSizes) {
    for (int threads : kThreadCounts) {
      GenericJoinOptions opts;
      opts.attribute_order = {"A", "B", "C"};
      opts.batch_size = batch;
      opts.num_threads = threads;
      Metrics m;
      opts.metrics = &m;
      auto batched = GenericJoin(fx.Inputs(), opts);
      ASSERT_TRUE(batched.ok()) << batched.status().ToString();
      SCOPED_TRACE("batch=" + std::to_string(batch) +
                   " threads=" + std::to_string(threads));
      ExpectByteIdentical(*reference, *batched);
      if (threads == 1) {
        // Serial: every counter matches the serial reference exactly
        // (sharded runs additionally report gj.shards and spend a
        // lower-bound seek per shard).
        EXPECT_EQ(DeterministicCounters(m), DeterministicCounters(ref_m));
      } else {
        // Sharded: compare against the reference at the same thread
        // count below; here the row-level counters still match.
        EXPECT_EQ(m.Get("gj.output"), ref_m.Get("gj.output"));
        EXPECT_EQ(m.Get("gj.total_intermediate"),
                  ref_m.Get("gj.total_intermediate"));
      }
    }
  }
}

TEST(BatchedGenericJoinTest, ShardedCountersMatchReferenceSharded) {
  TriangleFixture fx(20);
  for (int threads : kThreadCounts) {
    for (int shards : {3, 16}) {
      GenericJoinOptions opts;
      opts.attribute_order = {"A", "B", "C"};
      opts.num_threads = threads;
      opts.num_shards = shards;
      opts.batch_size = 1;
      Metrics ref_m;
      opts.metrics = &ref_m;
      auto reference = GenericJoin(fx.Inputs(), opts);
      ASSERT_TRUE(reference.ok());
      for (int batch : kBatchSizes) {
        GenericJoinOptions bopts = opts;
        bopts.batch_size = batch;
        Metrics m;
        bopts.metrics = &m;
        auto batched = GenericJoin(fx.Inputs(), bopts);
        ASSERT_TRUE(batched.ok());
        SCOPED_TRACE("batch=" + std::to_string(batch) +
                     " threads=" + std::to_string(threads) +
                     " shards=" + std::to_string(shards));
        ExpectByteIdentical(*reference, *batched);
        EXPECT_EQ(DeterministicCounters(m), DeterministicCounters(ref_m));
      }
    }
  }
}

// Two-relation join R(A,B) x S(B,C): attribute C is covered by S alone,
// so the deepest level takes the single-participant drain — bulk copies
// straight out of the span.
TEST(BatchedGenericJoinTest, SingleParticipantDeepestLevelDrain) {
  auto mk = [](std::vector<Tuple> t, std::vector<std::string> attrs) {
    auto s = Schema::Make(attrs);
    return *Relation::FromTuples(*s, std::move(t));
  };
  std::vector<Tuple> r_rows, s_rows;
  for (int i = 0; i < 30; ++i) {
    for (int j = 0; j < 30; ++j) {
      if ((i + j) % 3 == 0) r_rows.push_back({i, j});
      if ((i * 2 + j) % 4 != 0) s_rows.push_back({i, j});
    }
  }
  auto tr = RelationTrie::Build(mk(r_rows, {"A", "B"}), {"A", "B"});
  auto ts = RelationTrie::Build(mk(s_rows, {"B", "C"}), {"B", "C"});

  GenericJoinOptions ref_opts;
  ref_opts.attribute_order = {"A", "B", "C"};
  ref_opts.batch_size = 1;
  Metrics ref_m;
  ref_opts.metrics = &ref_m;
  auto ir = tr->NewIterator();
  auto is = ts->NewIterator();
  std::vector<JoinInput> inputs{{"R", {"A", "B"}, ir.get()},
                                {"S", {"B", "C"}, is.get()}};
  auto reference = GenericJoin(inputs, ref_opts);
  ASSERT_TRUE(reference.ok());
  ASSERT_GT(reference->num_rows(), 1000u);

  for (int batch : kBatchSizes) {
    for (int threads : kThreadCounts) {
      GenericJoinOptions opts;
      opts.attribute_order = {"A", "B", "C"};
      opts.batch_size = batch;
      opts.num_threads = threads;
      Metrics m;
      opts.metrics = &m;
      auto batched = GenericJoin(inputs, opts);
      ASSERT_TRUE(batched.ok());
      SCOPED_TRACE("batch=" + std::to_string(batch) +
                   " threads=" + std::to_string(threads));
      ExpectByteIdentical(*reference, *batched);
      if (threads == 1) {
        EXPECT_EQ(DeterministicCounters(m), DeterministicCounters(ref_m));
      }
    }
  }
}

// There is no unbatched mode: a batch below one row is a caller error,
// both for the engine and for plan preparation.
TEST(BatchedGenericJoinTest, RejectsBatchSizeBelowOne) {
  TriangleFixture fx(4);
  for (int batch : {0, -1}) {
    GenericJoinOptions opts;
    opts.attribute_order = {"A", "B", "C"};
    opts.batch_size = batch;
    auto joined = GenericJoin(fx.Inputs(), opts);
    ASSERT_FALSE(joined.ok());
    EXPECT_EQ(joined.status().code(), StatusCode::kInvalidArgument);

    PaperInstance inst = MakePaperInstance(2, PaperSchema::kExample33,
                                           PaperDataMode::kRandom);
    PlanSettings settings;
    settings.batch_size = batch;
    auto prepared = PrepareXJoin(inst.Query(), settings);
    ASSERT_FALSE(prepared.ok());
    EXPECT_EQ(prepared.status().code(), StatusCode::kInvalidArgument);
  }
}

// --- XJoin level: paper, adversarial, and XMark workloads ----------------

// Runs `query` at the one-row reference and across the batch/thread
// matrix and demands byte-identical relations plus identical
// deterministic counters (per thread count — sharded runs add gj.shards
// and per-shard seeks, so runs are compared at matching thread counts).
void ExpectBatchedXJoinMatchesReference(const MultiModelQuery& query,
                                     PlanSettings base) {
  for (int threads : kThreadCounts) {
    PlanSettings ref_settings = base;
    ref_settings.num_threads = threads;
    ref_settings.batch_size = 1;
    Metrics ref_m;
    EngineServices ref_services;
    ref_services.metrics = &ref_m;
    auto reference = ExecuteXJoin(query, ref_settings, ref_services);
    ASSERT_TRUE(reference.ok()) << reference.status().ToString();

    for (int batch : kBatchSizes) {
      PlanSettings settings = base;
      settings.num_threads = threads;
      settings.batch_size = batch;
      Metrics m;
      EngineServices services;
      services.metrics = &m;
      auto batched = ExecuteXJoin(query, settings, services);
      ASSERT_TRUE(batched.ok()) << batched.status().ToString();
      SCOPED_TRACE("threads=" + std::to_string(threads) +
                   " batch=" + std::to_string(batch));
      ExpectByteIdentical(*reference, *batched);
      EXPECT_EQ(DeterministicCounters(m), DeterministicCounters(ref_m));
    }
  }
}

TEST(BatchedXJoinTest, PaperExampleWorkloads) {
  for (PaperSchema schema :
       {PaperSchema::kExample33, PaperSchema::kExample34}) {
    for (PaperDataMode mode :
         {PaperDataMode::kAdversarial, PaperDataMode::kRandom}) {
      PaperInstance inst = MakePaperInstance(5, schema, mode);
      ExpectBatchedXJoinMatchesReference(inst.Query(), PlanSettings{});
    }
  }
}

TEST(BatchedXJoinTest, AdversarialAgmTightWorkload) {
  auto inst = MakeAgmTightInstance({{"A", "B"}, {"B", "C"}, {"C", "A"}}, 64);
  ASSERT_TRUE(inst.ok());
  MultiModelQuery q;
  for (size_t i = 0; i < inst->relations.size(); ++i) {
    q.relations.push_back(
        {"R" + std::to_string(i + 1), inst->relations[i].get()});
  }
  ExpectBatchedXJoinMatchesReference(q, PlanSettings{});
}

TEST(BatchedXJoinTest, XMarkWorkloads) {
  XMarkOptions opts;
  opts.num_items = 40;
  opts.num_persons = 25;
  opts.num_open_auctions = 30;
  opts.num_closed_auctions = 25;
  XMarkInstance inst = MakeXMark(opts);
  for (MultiModelQuery q :
       {inst.ClosedAuctionQuery(), inst.OpenAuctionQuery()}) {
    ExpectBatchedXJoinMatchesReference(q, PlanSettings{});
  }
}

}  // namespace
}  // namespace xjoin
