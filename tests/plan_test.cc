// Plan lifecycle (Prepare -> Pin -> Execute): cached-plan reuse is
// byte-identical to cold execution and skips order selection and all
// trie builds; UpdateRelation / document mutation
// invalidate dependent plans; the options fingerprint
// separates num_threads / num_shards variants; the byte-budget
// LRU bounds the trie cache; and the per-twig validation sub-counters
// stay exact in parallel runs.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/metrics.h"
#include "common/string_util.h"
#include "core/database.h"
#include "core/xjoin.h"

namespace xjoin {
namespace {

class PlanTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(db_.RegisterRelationCsv("R",
                                        "A,B\n"
                                        "1,x\n"
                                        "1,y\n"
                                        "2,x\n")
                    .ok());
    ASSERT_TRUE(db_.RegisterRelationCsv("S",
                                        "B,C\n"
                                        "x,7\n"
                                        "y,8\n")
                    .ok());
    ASSERT_TRUE(db_.RegisterDocumentXml("doc", R"(
        <items><item><B>x</B><D>5</D></item>
               <item><B>y</B><D>6</D></item></items>)")
                    .ok());
  }

  MultiModelDatabase db_;
  const std::string q_ = "Q(*) := R, S, doc : item[B]/D";
};

TEST(CanonicalizeQueryTextTest, NormalizesSpellingSafely) {
  EXPECT_EQ(CanonicalizeQueryText("Q(*) := R , S"),
            CanonicalizeQueryText("Q(*):=R,S"));
  EXPECT_EQ(CanonicalizeQueryText("  Q(a, b) := R,\n d : x[y]/z  "),
            CanonicalizeQueryText("Q(a,b):=R,d:x[y]/z"));
  // Whitespace inside identifiers is collapsed, not deleted: distinct
  // names cannot alias.
  EXPECT_NE(CanonicalizeQueryText("a b"), CanonicalizeQueryText("ab"));
  EXPECT_EQ(CanonicalizeQueryText("a  \t b"), "a b");
}

TEST_F(PlanTest, CachedPlanReuseIsByteIdenticalToColdExecution) {
  Metrics cold_metrics;
  QueryOptions cold;
  cold.metrics = &cold_metrics;
  auto first = db_.OpenSession().Query(q_, cold);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_EQ(cold_metrics.Get("db.plan_cache.misses"), 1);
  EXPECT_EQ(cold_metrics.Get("plan.prepared"), 1);

  Metrics warm_metrics;
  QueryOptions warm;
  warm.metrics = &warm_metrics;
  auto second = db_.OpenSession().Query(q_, warm);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(warm_metrics.Get("db.plan_cache.hits"), 1);
  EXPECT_EQ(first->ToTuples(), second->ToTuples());

  // A plan-free execution over the same parsed query agrees byte for
  // byte (no database caches involved at all).
  auto prepared = db_.OpenSession().Prepare(q_);
  ASSERT_TRUE(prepared.ok());
  auto bare = ExecuteXJoin(prepared->query(), PlanSettings{});
  ASSERT_TRUE(bare.ok());
  EXPECT_EQ(first->ToTuples(), bare->ToTuples());
}

TEST_F(PlanTest, PlanCacheHitSkipsPlanningAndTrieWork) {
  ASSERT_TRUE(db_.OpenSession().Query(q_).ok());
  ASSERT_EQ(db_.cache_stats().plan_entries, 1u);

  Metrics warm;
  QueryOptions options;
  options.metrics = &warm;
  ASSERT_TRUE(db_.OpenSession().Query(q_, options).ok());
  // The hit skips order selection (no prepare ran),
  // every trie build, and does not even consult the trie cache — the
  // plan replays its pinned handles.
  EXPECT_EQ(warm.Get("db.plan_cache.hits"), 1);
  EXPECT_EQ(warm.Get("db.plan_cache.misses"), 0);
  EXPECT_EQ(warm.Get("plan.prepared"), 0);
  EXPECT_EQ(warm.Get("trie.builds"), 0);
  EXPECT_EQ(warm.Get("db.trie_cache.hits"), 0);
  EXPECT_EQ(warm.Get("db.trie_cache.misses"), 0);
  // The join itself still ran.
  EXPECT_GT(warm.Get("gj.total_intermediate"), 0);
}

TEST_F(PlanTest, SpellingVariantsShareOnePlan) {
  ASSERT_TRUE(db_.OpenSession().Query("Q(*) := R, S").ok());
  ASSERT_TRUE(db_.OpenSession().Query("Q(*):=R,  S").ok());
  CacheStats stats = db_.cache_stats();
  EXPECT_EQ(stats.plan_entries, 1u);
  EXPECT_EQ(stats.plan_hits, 1);
}

TEST_F(PlanTest, OptionsFingerprintSeparatesVariants) {
  QueryOptions serial;
  ASSERT_TRUE(db_.OpenSession().Query(q_, serial).ok());
  QueryOptions threaded;
  threaded.xjoin.num_threads = 2;
  ASSERT_TRUE(db_.OpenSession().Query(q_, threaded).ok());
  // A shard count is a variant that must fingerprint separately.
  QueryOptions sharded;
  sharded.xjoin.num_shards = 3;
  ASSERT_TRUE(db_.OpenSession().Query(q_, sharded).ok());
  CacheStats stats = db_.cache_stats();
  EXPECT_EQ(stats.plan_entries, 3u);
  EXPECT_EQ(stats.plan_hits, 0);
  EXPECT_EQ(stats.plan_misses, 3);
  // Re-running each variant hits its own entry.
  ASSERT_TRUE(db_.OpenSession().Query(q_, threaded).ok());
  ASSERT_TRUE(db_.OpenSession().Query(q_, sharded).ok());
  stats = db_.cache_stats();
  EXPECT_EQ(stats.plan_hits, 2);
  EXPECT_EQ(stats.plan_entries, 3u);

  // Every other plan setting is a variant of its own as well.
  QueryOptions ordered;
  ordered.xjoin.attribute_order = {"item", "B", "D", "A", "C"};
  QueryOptions smallest_domain;
  smallest_domain.xjoin.order_heuristic = OrderHeuristic::kSmallestDomain;
  const std::vector<QueryOptions> more = {ordered, smallest_domain};
  for (const QueryOptions& options : more) {
    auto result = db_.OpenSession().Query(q_, options);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
  }
  stats = db_.cache_stats();
  EXPECT_EQ(stats.plan_entries, 5u);
  EXPECT_EQ(stats.plan_misses, 5);
  EXPECT_EQ(stats.plan_hits, 2);
  for (const QueryOptions& options : more) {
    ASSERT_TRUE(db_.OpenSession().Query(q_, options).ok());
  }
  stats = db_.cache_stats();
  EXPECT_EQ(stats.plan_hits, 4);
  EXPECT_EQ(stats.plan_entries, 5u);

  // Settings that prepare the same plan share its entry: every
  // num_threads <= 1, and every num_shards <= 0.
  QueryOptions zero_threads;
  zero_threads.xjoin.num_threads = 0;
  QueryOptions negative_shards;
  negative_shards.xjoin.num_shards = -1;
  ASSERT_TRUE(db_.OpenSession().Query(q_, zero_threads).ok());
  ASSERT_TRUE(db_.OpenSession().Query(q_, negative_shards).ok());
  stats = db_.cache_stats();
  EXPECT_EQ(stats.plan_hits, 6);
  EXPECT_EQ(stats.plan_misses, 5);
  EXPECT_EQ(stats.plan_entries, 5u);
}

TEST_F(PlanTest, ExplainShowsExecutionMode) {
  // Execution renders a per-level kernel, and no SIMD dispatch line and
  // no block-size line: the engine has one output path and no knob.
  auto default_text = db_.OpenSession().Explain(q_);
  ASSERT_TRUE(default_text.ok());
  EXPECT_EQ(default_text->find("execution:"), std::string::npos);
  EXPECT_EQ(default_text->find("block="), std::string::npos);
  EXPECT_EQ(default_text->find("simd"), std::string::npos);
  EXPECT_NE(default_text->find("kernel "), std::string::npos);
}

TEST_F(PlanTest, UpdateRelationInvalidatesDependentPlans) {
  ASSERT_TRUE(db_.OpenSession().Query(q_).ok());
  ASSERT_TRUE(db_.OpenSession().Query("Q(*) := S").ok());
  EXPECT_EQ(db_.cache_stats().plan_entries, 2u);
  EXPECT_EQ(*db_.OpenSession().relation_version("R"), 0u);

  Relation replacement = **db_.OpenSession().relation("R");
  Tuple extra = {db_.mutable_dictionary()->Intern("2"),
                 db_.mutable_dictionary()->Intern("y")};
  replacement.AppendRow(extra);
  ASSERT_TRUE(db_.UpdateRelation("R", std::move(replacement)).ok());

  // Version bump observed; only the plan reading R was dropped.
  EXPECT_EQ(*db_.OpenSession().relation_version("R"), 1u);
  CacheStats stats = db_.cache_stats();
  EXPECT_EQ(stats.plan_entries, 1u);
  EXPECT_EQ(stats.plan_invalidations, 1);

  // The re-prepared plan sees the new contents.
  auto result = db_.OpenSession().Query("Q(A, B, C) := R, S");
  ASSERT_TRUE(result.ok());
  const Dictionary& dict = db_.dictionary();
  EXPECT_TRUE(result->ContainsRow(
      {dict.Lookup("2"), dict.Lookup("y"), dict.Lookup("8")}));
}

TEST_F(PlanTest, DocumentMutationInvalidatesDependentPlans) {
  ASSERT_TRUE(db_.OpenSession().Query(q_).ok());
  // The 2 relation tries; twig paths are navigated lazily, so the
  // document owns no cached trie.
  EXPECT_EQ(db_.cache_stats().trie_entries, 2u);
  EXPECT_EQ(db_.cache_stats().trie_misses, 2);
  EXPECT_EQ(*db_.OpenSession().document_version("doc"), 0u);
  EXPECT_EQ(db_.cache_stats().plan_entries, 1u);

  ASSERT_TRUE(db_.UpdateDocumentXml("doc", R"(
      <items><item><B>x</B><D>5</D></item>
             <item><B>y</B><D>6</D></item>
             <item><B>y</B><D>7</D></item></items>)")
                  .ok());
  // Version bump observed; the dependent plan is gone, the relation
  // tries stay.
  EXPECT_EQ(*db_.OpenSession().document_version("doc"), 1u);
  CacheStats stats = db_.cache_stats();
  EXPECT_EQ(stats.trie_entries, 2u);
  EXPECT_EQ(stats.plan_entries, 0u);
  EXPECT_GE(stats.plan_invalidations, 1);

  // The re-prepared plan reads the new document and pins the surviving
  // relation tries from the cache.
  auto result = db_.OpenSession().Query("Q(D) := R, S, doc : item[B]/D");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(result->ContainsRow({db_.dictionary().Lookup("7")}));
  stats = db_.cache_stats();
  EXPECT_EQ(stats.trie_entries, 2u);
  EXPECT_EQ(stats.trie_misses, 2);

  // Updating an unregistered document fails.
  EXPECT_FALSE(db_.UpdateDocumentXml("nope", "<a/>").ok());
}

TEST_F(PlanTest, ByteBudgetLruEvictsLeastRecentlyUsed) {
  // Default budget 256 MiB.
  EXPECT_EQ(db_.cache_stats().trie_budget, size_t{256} << 20);
  ASSERT_TRUE(db_.OpenSession().Query("Q(*) := R, S").ok());
  CacheStats stats = db_.cache_stats();
  EXPECT_EQ(stats.trie_entries, 2u);
  EXPECT_GT(stats.trie_bytes, 0u);

  // Shrinking the budget below the current footprint evicts from the
  // LRU tail immediately.
  db_.SetTrieCacheBudget(1);
  stats = db_.cache_stats();
  EXPECT_EQ(stats.trie_entries, 0u);
  EXPECT_EQ(stats.trie_bytes, 0u);
  EXPECT_EQ(stats.trie_evictions, 2);

  // Oversize tries are served uncached; queries still work.
  db_.ClearPlanCache();
  Metrics metrics;
  QueryOptions options;
  options.metrics = &metrics;
  auto result = db_.OpenSession().Query("Q(*) := R, S", options);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(db_.cache_stats().trie_entries, 0u);
  EXPECT_EQ(metrics.Get("db.trie_cache.misses"), 2);
}

TEST_F(PlanTest, PlanCacheCapacityBoundsThePins) {
  // Each cached plan pins its tries past trie-cache eviction, so the
  // plan cache itself is LRU-capped.
  EXPECT_EQ(db_.cache_stats().plan_capacity, 256u);
  db_.SetPlanCacheCapacity(1);
  ASSERT_TRUE(db_.OpenSession().Query("Q(*) := R, S").ok());
  ASSERT_TRUE(db_.OpenSession().Query("Q(*) := R").ok());
  CacheStats stats = db_.cache_stats();
  EXPECT_EQ(stats.plan_entries, 1u);
  EXPECT_EQ(stats.plan_evictions, 1);

  // The resident plan hits; the evicted text re-prepares.
  ASSERT_TRUE(db_.OpenSession().Query("Q(*) := R").ok());
  EXPECT_EQ(db_.cache_stats().plan_hits, 1);
  ASSERT_TRUE(db_.OpenSession().Query("Q(*) := R, S").ok());
  EXPECT_EQ(db_.cache_stats().plan_misses, 3);

  // Capacity 0 disables plan caching entirely.
  db_.SetPlanCacheCapacity(0);
  EXPECT_EQ(db_.cache_stats().plan_entries, 0u);
  ASSERT_TRUE(db_.OpenSession().Query("Q(*) := R").ok());
  EXPECT_EQ(db_.cache_stats().plan_entries, 0u);
}

TEST_F(PlanTest, ParallelValidationCountersAreExact) {
  // The cut A-D edge items//item leaves the twig uncertified, so every
  // expanded row goes through the final validation, which runs chunked
  // across the pool with one Metrics bag per worker: 150 expanded rows
  // make several 64-row chunks.
  std::string xml = "<items>";
  std::string csv = "B,E\n";
  for (int i = 0; i < 300; ++i) {
    xml += "<item><B>b" + std::to_string(i) + "</B><D>d" + std::to_string(i) +
           "</D></item>";
    if (i % 2 == 0) csv += "b" + std::to_string(i) + ",e\n";
  }
  xml += "</items>";
  ASSERT_TRUE(db_.RegisterDocumentXml("wide", xml).ok());
  ASSERT_TRUE(db_.RegisterRelationCsv("T", csv).ok());
  const std::string query = "Q(*) := T, wide : items//item[B]/D";

  Metrics serial;
  QueryOptions serial_options;
  serial_options.metrics = &serial;
  auto serial_result = db_.OpenSession().Query(query, serial_options);
  ASSERT_TRUE(serial_result.ok());

  Metrics parallel;
  QueryOptions parallel_options;
  parallel_options.xjoin.num_threads = 4;
  parallel_options.metrics = &parallel;
  auto parallel_result = db_.OpenSession().Query(query, parallel_options);
  ASSERT_TRUE(parallel_result.ok());

  EXPECT_EQ(serial_result->ToTuples(), parallel_result->ToTuples());
  EXPECT_EQ(serial_result->num_rows(), 150u);
  // The per-worker bags must merge into exactly the serial counts.
  EXPECT_GT(serial.Get("validate.candidates"), 0);
  EXPECT_EQ(serial.Get("validate.candidates"),
            parallel.Get("validate.candidates"));
  EXPECT_EQ(serial.Get("xjoin.expanded"), parallel.Get("xjoin.expanded"));
  EXPECT_EQ(serial.Get("xjoin.validated"), parallel.Get("xjoin.validated"));
}

TEST_F(PlanTest, ExplainRendersThePlanAndCacheCounters) {
  auto text = db_.OpenSession().Explain(q_);
  ASSERT_TRUE(text.ok()) << text.status().ToString();
  EXPECT_NE(text->find("query:"), std::string::npos);
  EXPECT_NE(text->find("relation R(A, B)"), std::string::npos);
  EXPECT_NE(text->find("transform(Sx)"), std::string::npos);
  EXPECT_NE(text->find("expansion order"), std::string::npos);
  EXPECT_NE(text->find("lead"), std::string::npos);
  EXPECT_NE(text->find("shard plan:"), std::string::npos);
  EXPECT_NE(text->find("worst-case size bound"), std::string::npos);
  EXPECT_NE(text->find("plan cache:"), std::string::npos);
  EXPECT_NE(text->find("trie cache:"), std::string::npos);
}

TEST_F(PlanTest, ExplainShowsWhetherEachTwigIsValidated) {
  // item is textless, so each <item> has its own value: the P-C twig is
  // certified and its final validation skipped.
  auto certified = db_.OpenSession().Explain(q_);
  ASSERT_TRUE(certified.ok()) << certified.status().ToString();
  EXPECT_NE(certified->find("    validation: none (P-C only; branching tag "
                            "item has unique values)\n"),
            std::string::npos)
      << *certified;

  ASSERT_TRUE(db_.RegisterDocumentXml("cut", "<r><A><x><C>1</C></x></A></r>")
                  .ok());
  auto cut = db_.OpenSession().Explain("Q(*) := cut : A//C");
  ASSERT_TRUE(cut.ok()) << cut.status().ToString();
  EXPECT_NE(cut->find("    validation: final (cut edge A//C)\n"),
            std::string::npos)
      << *cut;

  ASSERT_TRUE(db_.RegisterDocumentXml("rep",
                                      "<r><a>1<b>x</b><c>y</c></a>"
                                      "<a>1<b>z</b><c>w</c></a></r>")
                  .ok());
  auto repeats = db_.OpenSession().Explain("Q(*) := rep : a[b,c]");
  ASSERT_TRUE(repeats.ok()) << repeats.status().ToString();
  EXPECT_NE(repeats->find("    validation: final (tag a repeats values)\n"),
            std::string::npos)
      << *repeats;
}

}  // namespace
}  // namespace xjoin
