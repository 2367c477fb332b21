// Database-level trie cache: hits on re-planned queries, keying by
// (relation, attribute order, relation version), invalidation on
// UpdateRelation and via the explicit hook, and identical results with
// the caches on or off. A repeated *identical* query is served by
// the plan cache without consulting the trie cache at all (its tries
// are pinned in the plan — see plan_test.cc), so the tests below clear
// the plan cache wherever they mean to exercise trie-cache hits.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <string>
#include <vector>

#include "common/metrics.h"
#include "core/database.h"
#include "relational/trie.h"

namespace xjoin {
namespace {

// Registers the fixture relations R(A, B) and S(B, C).
void RegisterRelations(MultiModelDatabase* db) {
  ASSERT_TRUE(db->RegisterRelationCsv("R",
                                      "A,B\n"
                                      "1,x\n"
                                      "1,y\n"
                                      "2,x\n")
                  .ok());
  ASSERT_TRUE(db->RegisterRelationCsv("S",
                                      "B,C\n"
                                      "x,7\n"
                                      "y,8\n")
                  .ok());
}

// The rows of `rel` with every code decoded through `db`'s dictionary,
// so results from two databases compare by value.
std::vector<std::vector<std::string>> Decoded(const MultiModelDatabase& db,
                                              const Relation& rel) {
  std::vector<std::vector<std::string>> rows;
  for (const Tuple& tuple : rel.ToTuples()) {
    std::vector<std::string> row;
    for (int64_t code : tuple) row.push_back(db.dictionary().Decode(code));
    rows.push_back(std::move(row));
  }
  return rows;
}

class TrieCacheTest : public ::testing::Test {
 protected:
  void SetUp() override { RegisterRelations(&db_); }

  MultiModelDatabase db_;
};

TEST_F(TrieCacheTest, RepeatedQueriesHitTheCache) {
  Metrics first_metrics;
  QueryOptions first_options;
  first_options.metrics = &first_metrics;
  auto first = db_.OpenSession().Query("Q(*) := R, S", first_options);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  CacheStats stats = db_.cache_stats();
  EXPECT_EQ(stats.trie_misses, 2);  // one trie per relation
  EXPECT_EQ(stats.trie_hits, 0);
  EXPECT_EQ(stats.trie_entries, 2u);
  EXPECT_EQ(first_metrics.Get("db.trie_cache.misses"), 2);

  // Re-plan the same text: the fresh plan pins its tries through the
  // cache and hits both entries.
  db_.ClearPlanCache();
  Metrics second_metrics;
  QueryOptions second_options;
  second_options.metrics = &second_metrics;
  auto second = db_.OpenSession().Query("Q(*) := R, S", second_options);
  ASSERT_TRUE(second.ok());
  stats = db_.cache_stats();
  EXPECT_EQ(stats.trie_misses, 2);
  EXPECT_EQ(stats.trie_hits, 2);
  EXPECT_EQ(stats.trie_entries, 2u);
  EXPECT_EQ(second_metrics.Get("db.trie_cache.hits"), 2);
  EXPECT_EQ(second_metrics.Get("db.trie_cache.misses"), 0);

  // Cached and uncached runs are byte-identical.
  EXPECT_EQ(first->ToTuples(), second->ToTuples());
}

TEST_F(TrieCacheTest, DistinctAttributeOrdersGetDistinctEntries) {
  QueryOptions forward;
  forward.xjoin.attribute_order = {"A", "B", "C"};
  ASSERT_TRUE(db_.OpenSession().Query("Q(*) := R, S", forward).ok());
  size_t after_first = db_.cache_stats().trie_entries;
  EXPECT_EQ(after_first, 2u);

  // A different global order induces a different trie order for R
  // ((B,A) instead of (A,B)) — a new cache entry, not a bogus hit — but
  // S's induced order (B,C) is unchanged and hits.
  QueryOptions reversed;
  reversed.xjoin.attribute_order = {"B", "A", "C"};
  ASSERT_TRUE(db_.OpenSession().Query("Q(*) := R, S", reversed).ok());
  CacheStats stats = db_.cache_stats();
  EXPECT_EQ(stats.trie_entries, 3u);
  EXPECT_EQ(stats.trie_hits, 1);
}

TEST_F(TrieCacheTest, UpdateRelationInvalidatesAndRebuilds) {
  ASSERT_TRUE(db_.OpenSession().Query("Q(*) := R, S").ok());
  EXPECT_EQ(db_.cache_stats().trie_entries, 2u);
  EXPECT_EQ(*db_.OpenSession().relation_version("R"), 0u);

  // Replace R: its cached trie must go; S's must stay.
  Relation replacement = **db_.OpenSession().relation("R");
  Tuple extra = {db_.mutable_dictionary()->Intern("2"),
                 db_.mutable_dictionary()->Intern("y")};
  replacement.AppendRow(extra);
  ASSERT_TRUE(db_.UpdateRelation("R", std::move(replacement)).ok());
  EXPECT_EQ(*db_.OpenSession().relation_version("R"), 1u);
  EXPECT_EQ(db_.cache_stats().trie_entries, 1u);

  // The next query sees the new contents (no stale trie).
  auto result = db_.OpenSession().Query("Q(A, B, C) := R, S");
  ASSERT_TRUE(result.ok());
  const Dictionary& dict = db_.dictionary();
  EXPECT_TRUE(result->ContainsRow(
      {dict.Lookup("2"), dict.Lookup("y"), dict.Lookup("8")}));
  EXPECT_EQ(db_.cache_stats().trie_entries, 2u);

  // Updating a relation that does not exist fails.
  auto s = Schema::Make({"Z"});
  EXPECT_FALSE(db_.UpdateRelation("nope", Relation(*s)).ok());
}

TEST_F(TrieCacheTest, ApplyRelationDeltaPatchesInsteadOfInvalidating) {
  ASSERT_TRUE(db_.OpenSession().Query("Q(*) := R, S").ok());
  EXPECT_EQ(db_.cache_stats().trie_entries, 2u);
  const int64_t misses_before = db_.cache_stats().trie_misses;

  // A delta to R rebuilds its cached trie over the new contents and
  // re-keys it at the new version — no entry is dropped, and no query
  // has to build it.
  RelationDelta delta;
  delta.inserts = {{db_.mutable_dictionary()->Intern("2"),
                    db_.mutable_dictionary()->Intern("y")}};
  ASSERT_TRUE(db_.ApplyRelationDelta("R", delta).ok());
  EXPECT_EQ(*db_.OpenSession().relation_version("R"), 1u);
  EXPECT_EQ(db_.cache_stats().trie_entries, 2u);
  CacheStats stats = db_.cache_stats();
  EXPECT_EQ(stats.trie_patches, 1);

  // The next query is served by the patched trie: new contents, and no
  // trie-cache miss (i.e. no from-scratch build).
  auto result = db_.OpenSession().Query("Q(A, B, C) := R, S");
  ASSERT_TRUE(result.ok());
  const Dictionary& dict = db_.dictionary();
  EXPECT_TRUE(result->ContainsRow(
      {dict.Lookup("2"), dict.Lookup("y"), dict.Lookup("8")}));
  EXPECT_EQ(db_.cache_stats().trie_misses, misses_before);

  // Deleting the same row again via the delta path restores the
  // original contents (second patch, of the already-patched trie).
  RelationDelta undo;
  undo.deletes = delta.inserts;
  ASSERT_TRUE(db_.ApplyRelationDelta("R", undo).ok());
  auto restored = db_.OpenSession().Query("Q(A, B, C) := R, S");
  ASSERT_TRUE(restored.ok());
  EXPECT_FALSE(restored->ContainsRow(
      {dict.Lookup("2"), dict.Lookup("y"), dict.Lookup("8")}));
  stats = db_.cache_stats();
  EXPECT_EQ(stats.trie_patches, 2);
  EXPECT_EQ(stats.trie_misses, misses_before);
}

// A session opened before a write still answers on its snapshot, but
// the trie it builds for the replaced version is served uncached: no
// later session could hit it. It counts as a miss all the same.
void ExpectStaleSnapshotBuildUncached(
    const std::function<Status(MultiModelDatabase*, const Tuple&)>& write) {
  const std::string q = "Q(A, B, C) := R, S";
  MultiModelDatabase db;
  RegisterRelations(&db);
  auto before = db.OpenSession().Query(q);
  ASSERT_TRUE(before.ok()) << before.status().ToString();

  Session old_session = db.OpenSession();
  Dictionary* dict = db.mutable_dictionary();
  ASSERT_TRUE(write(&db, {dict->Intern("2"), dict->Intern("y")}).ok());
  const CacheStats written = db.cache_stats();

  auto old_answer = old_session.Query(q);
  ASSERT_TRUE(old_answer.ok()) << old_answer.status().ToString();
  EXPECT_EQ(old_answer->ToTuples(), before->ToTuples());
  const CacheStats after = db.cache_stats();
  EXPECT_EQ(after.trie_entries, written.trie_entries);
  EXPECT_EQ(after.trie_bytes, written.trie_bytes);
  EXPECT_EQ(after.trie_misses, written.trie_misses + 1);  // R; S hits
}

TEST(TrieCacheStaleTest, SessionBeforeUpdateRelationCachesNothing) {
  ExpectStaleSnapshotBuildUncached(
      [](MultiModelDatabase* db, const Tuple& extra) {
        Relation replacement = **db->OpenSession().relation("R");
        replacement.AppendRow(extra);
        return db->UpdateRelation("R", std::move(replacement));
      });
}

TEST(TrieCacheStaleTest, SessionBeforeApplyRelationDeltaCachesNothing) {
  ExpectStaleSnapshotBuildUncached(
      [](MultiModelDatabase* db, const Tuple& extra) {
        RelationDelta delta;
        delta.inserts = {extra};
        return db->ApplyRelationDelta("R", delta);
      });
}

// A delta leaves in the cache exactly the trie a fresh build of the new
// relation gives — same level arrays, same charged bytes — and the
// next prepared plan pins it without a trie-cache miss.
TEST_F(TrieCacheTest, DeltaPatchedTrieEqualsFreshBuild) {
  const std::string q = "Q(A, B, C) := R, S";
  ASSERT_TRUE(db_.OpenSession().Query(q).ok());
  const int64_t misses_before = db_.cache_stats().trie_misses;

  Dictionary* dict = db_.mutable_dictionary();
  RelationDelta delta;
  delta.inserts = {{dict->Intern("3"), dict->Intern("z")},
                   {dict->Intern("0"), dict->Intern("x")}};
  delta.deletes = {{dict->Intern("1"), dict->Intern("y")}};
  ASSERT_TRUE(db_.ApplyRelationDelta("R", delta).ok());

  Session session = db_.OpenSession();
  auto prepared = session.Prepare(q);
  ASSERT_TRUE(prepared.ok()) << prepared.status().ToString();
  EXPECT_EQ(db_.cache_stats().trie_misses, misses_before);
  const auto& inputs = prepared->plan->rel_inputs;
  auto input = std::find_if(inputs.begin(), inputs.end(),
                            [](const auto& in) { return in.name == "R"; });
  ASSERT_NE(input, inputs.end());
  const RelationTrie& patched = *input->trie;

  auto relation = session.relation("R");
  ASSERT_TRUE(relation.ok());
  auto fresh = RelationTrie::Build(**relation, patched.attribute_order());
  ASSERT_TRUE(fresh.ok());
  ASSERT_EQ(patched.arity(), fresh->arity());
  const size_t k = static_cast<size_t>(fresh->arity());
  for (size_t d = 0; d < k; ++d) {
    EXPECT_EQ(patched.level_keys(d), fresh->level_keys(d)) << "level " << d;
  }
  for (size_t d = 0; d + 1 < k; ++d) {
    EXPECT_EQ(patched.child_begin(d), fresh->child_begin(d)) << "level " << d;
  }
  EXPECT_EQ(patched.ByteSizeEstimate(), fresh->ByteSizeEstimate());
}

TEST_F(TrieCacheTest, ExplicitInvalidationHooks) {
  ASSERT_TRUE(db_.OpenSession().Query("Q(*) := R, S").ok());
  ASSERT_EQ(db_.cache_stats().trie_entries, 2u);

  db_.ClearTrieCache();
  EXPECT_EQ(db_.cache_stats().trie_entries, 0u);

  // Re-planned queries after a flush rebuild and re-populate. (Without
  // the plan flush the cached plan would just replay its pinned tries.)
  db_.ClearPlanCache();
  ASSERT_TRUE(db_.OpenSession().Query("Q(*) := R, S").ok());
  EXPECT_EQ(db_.cache_stats().trie_entries, 2u);
}

TEST_F(TrieCacheTest, CachedRunsMatchProviderFreeRuns) {
  // Run twice with the database caches (cold, then a plan-cache hit),
  // and twice on a second database that caches neither plans nor
  // tries; relations and twigs must agree value for value.
  const char* doc = R"(
      <items><item><B>x</B><D>5</D></item>
             <item><B>y</B><D>6</D></item></items>)";
  ASSERT_TRUE(db_.RegisterDocumentXml("doc", doc).ok());
  const std::string q = "Q(*) := R, S, doc : item[B]/D";
  auto cached_cold = db_.OpenSession().Query(q);
  ASSERT_TRUE(cached_cold.ok()) << cached_cold.status().ToString();
  auto cached_warm = db_.OpenSession().Query(q);
  ASSERT_TRUE(cached_warm.ok());
  EXPECT_EQ(db_.cache_stats().plan_hits, 1);

  // The same data on a database that caches nothing: every query plans
  // and builds its tries from scratch.
  MultiModelDatabase uncached_db;
  RegisterRelations(&uncached_db);
  ASSERT_TRUE(uncached_db.RegisterDocumentXml("doc", doc).ok());
  uncached_db.SetPlanCacheCapacity(0);
  uncached_db.SetTrieCacheBudget(0);
  auto uncached_cold = uncached_db.OpenSession().Query(q);
  ASSERT_TRUE(uncached_cold.ok()) << uncached_cold.status().ToString();
  auto uncached_warm = uncached_db.OpenSession().Query(q);
  ASSERT_TRUE(uncached_warm.ok());
  CacheStats uncached_stats = uncached_db.cache_stats();
  EXPECT_EQ(uncached_stats.plan_entries, 0u);
  EXPECT_EQ(uncached_stats.trie_entries, 0u);
  EXPECT_GT(uncached_stats.trie_misses, 0);

  // Results compare as decoded strings: the two databases intern values
  // into separate dictionaries.
  const std::vector<std::vector<std::string>> expected =
      Decoded(db_, *cached_cold);
  EXPECT_EQ(expected, Decoded(db_, *cached_warm));
  EXPECT_EQ(expected, Decoded(uncached_db, *uncached_cold));
  EXPECT_EQ(expected, Decoded(uncached_db, *uncached_warm));
}

TEST_F(TrieCacheTest, BudgetOfExactlyTheWorkingSetHoldsIt) {
  // Learn the working set: the bytes of the query's two cached tries.
  const std::string q = "Q(*) := R, S";
  auto cold = db_.OpenSession().Query(q);
  ASSERT_TRUE(cold.ok()) << cold.status().ToString();
  CacheStats stats = db_.cache_stats();
  ASSERT_EQ(stats.trie_entries, 2u);
  const size_t working_set = stats.trie_bytes;
  ASSERT_GT(working_set, 0u);

  // A budget of exactly the working set keeps both tries: a re-planned
  // replay is served from the cache alone.
  db_.SetTrieCacheBudget(working_set);
  db_.ClearPlanCache();
  auto fits = db_.OpenSession().Query(q);
  ASSERT_TRUE(fits.ok());
  stats = db_.cache_stats();
  EXPECT_EQ(stats.trie_hits, 2);
  EXPECT_EQ(stats.trie_misses, 2);  // the cold run's builds only
  EXPECT_EQ(stats.trie_evictions, 0);
  EXPECT_EQ(stats.trie_entries, 2u);
  EXPECT_EQ(stats.trie_bytes, working_set);

  // One byte less cannot hold both: the replay rebuilds what the
  // smaller budget dropped, and inserting it evicts the other.
  db_.SetTrieCacheBudget(working_set - 1);
  const int64_t evictions_before = db_.cache_stats().trie_evictions;
  const int64_t misses_before = db_.cache_stats().trie_misses;
  db_.ClearPlanCache();
  auto tight = db_.OpenSession().Query(q);
  ASSERT_TRUE(tight.ok());
  stats = db_.cache_stats();
  EXPECT_GT(stats.trie_evictions, evictions_before);
  EXPECT_GT(stats.trie_misses, misses_before);
  EXPECT_LE(stats.trie_bytes, working_set - 1);

  // Both replays agree row for row with a database that caches nothing.
  MultiModelDatabase uncached_db;
  RegisterRelations(&uncached_db);
  uncached_db.SetPlanCacheCapacity(0);
  uncached_db.SetTrieCacheBudget(0);
  auto uncached = uncached_db.OpenSession().Query(q);
  ASSERT_TRUE(uncached.ok());
  const std::vector<std::vector<std::string>> expected =
      Decoded(uncached_db, *uncached);
  EXPECT_EQ(Decoded(db_, *cold), expected);
  EXPECT_EQ(Decoded(db_, *fits), expected);
  EXPECT_EQ(Decoded(db_, *tight), expected);
}

TEST_F(TrieCacheTest, ShardedQueriesShareTheCache) {
  QueryOptions sharded;
  sharded.xjoin.num_threads = 4;
  ASSERT_TRUE(db_.OpenSession().Query("Q(*) := R, S", sharded).ok());
  int64_t misses = db_.cache_stats().trie_misses;
  EXPECT_EQ(misses, 2);
  db_.ClearPlanCache();
  ASSERT_TRUE(db_.OpenSession().Query("Q(*) := R, S", sharded).ok());
  CacheStats stats = db_.cache_stats();
  EXPECT_EQ(stats.trie_misses, misses);
  EXPECT_GE(stats.trie_hits, 2);
}

}  // namespace
}  // namespace xjoin
