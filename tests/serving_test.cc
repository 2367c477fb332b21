// Serving-core tests: Session snapshot isolation under concurrent
// writers, admission-budget enforcement (typed Statuses, no partial
// results), session/plan pin lifetime vs cache eviction, cooperative
// cancellation (session-, statement-, and options-scoped tokens),
// per-tenant admission pools, the atomically-snapshotted CacheStats
// getter, and — in XJOIN_FAULTS builds — deterministic fault
// injection at the catalogued sites.
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <functional>
#include <iterator>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/fault.h"
#include "common/string_util.h"
#include "core/database.h"
#include "net/frame.h"
#include "net/server.h"
#include "net/socket.h"

namespace xjoin {
namespace {

// CSV for a two-column relation whose rows are (i, i % mod) for
// i in [0, n) — joins on the shared column name chain naturally.
std::string MakeCsv(const std::string& a, const std::string& b, int n,
                    int mod, int offset) {
  std::string csv = a + "," + b + "\n";
  for (int i = 0; i < n; ++i) {
    csv += std::to_string(i + offset) + "," +
           std::to_string((i + offset) % mod) + "\n";
  }
  return csv;
}

class ServingTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(db_.RegisterRelationCsv("R", MakeCsv("A", "B", 60, 7, 0)).ok());
    ASSERT_TRUE(db_.RegisterRelationCsv("S", MakeCsv("B", "C", 60, 7, 0)).ok());
  }

  MultiModelDatabase db_;
  const std::string q_ = "Q(*) := R, S";
};

TEST_F(ServingTest, SessionSeesRepeatableSnapshot) {
  Session session = db_.OpenSession();
  auto before = session.Query(q_);
  ASSERT_TRUE(before.ok()) << before.status().ToString();

  // Writer lands after the session opened: the session keeps reading
  // the old contents, a fresh session sees the new ones.
  Relation replacement = **db_.OpenSession().relation("S");
  Relation bigger(replacement.schema());
  for (const auto& row : replacement.ToTuples()) bigger.AppendRow(row);
  bigger.AppendRow({db_.mutable_dictionary()->Intern("1"),
                    db_.mutable_dictionary()->Intern("999")});
  ASSERT_TRUE(db_.UpdateRelation("S", std::move(bigger)).ok());

  auto after = session.Query(q_);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(before->ToTuples(), after->ToTuples());
  EXPECT_EQ(*session.relation_version("S"), 0u);
  EXPECT_EQ(*db_.OpenSession().relation_version("S"), 1u);

  Session fresh = db_.OpenSession();
  auto updated = fresh.Query(q_);
  ASSERT_TRUE(updated.ok());
  EXPECT_GT(updated->num_rows(), before->num_rows());
}

TEST_F(ServingTest, ConcurrentReadersSeeConsistentSnapshots) {
  // Writers flip R between two contents and S between two contents;
  // every reader must observe one of the four consistent combinations
  // (byte-identical to a serial run on that combination) — never a
  // torn mix and never a crash from freed storage.
  MultiModelDatabase db;
  ASSERT_TRUE(db.RegisterRelationCsv("R", MakeCsv("A", "B", 40, 5, 0)).ok());
  ASSERT_TRUE(db.RegisterRelationCsv("S", MakeCsv("B", "C", 40, 5, 0)).ok());
  auto parse = [&](const std::string& csv) {
    auto rel = ReadCsv(csv, CsvOptions{}, db.mutable_dictionary());
    EXPECT_TRUE(rel.ok());
    return *std::move(rel);
  };
  const Relation r0 = parse(MakeCsv("A", "B", 40, 5, 0));
  const Relation r1 = parse(MakeCsv("A", "B", 40, 5, 100));
  const Relation s0 = parse(MakeCsv("B", "C", 40, 5, 0));
  const Relation s1 = parse(MakeCsv("B", "C", 40, 5, 100));

  // Precompute the four expected results serially, ending back at
  // (r0, s0) with even version parities: R version even <=> r0
  // contents, S version even <=> s0, an invariant the writers below
  // maintain. expected[R parity][S parity] is the byte-exact answer.
  const std::string q = "Q(*) := R, S";
  std::vector<Tuple> expected[2][2];
  expected[0][0] = db.OpenSession().Query(q)->ToTuples();
  ASSERT_TRUE(db.UpdateRelation("S", Relation(s1)).ok());  // S v1
  expected[0][1] = db.OpenSession().Query(q)->ToTuples();
  ASSERT_TRUE(db.UpdateRelation("R", Relation(r1)).ok());  // R v1
  expected[1][1] = db.OpenSession().Query(q)->ToTuples();
  ASSERT_TRUE(db.UpdateRelation("S", Relation(s0)).ok());  // S v2
  expected[1][0] = db.OpenSession().Query(q)->ToTuples();
  ASSERT_TRUE(db.UpdateRelation("R", Relation(r0)).ok());  // R v2
  ASSERT_NE(expected[0][0], expected[1][1]);

  std::atomic<bool> stop{false};
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  threads.reserve(6);  // gcc 12 -Werror: avoid the _M_realloc_insert FP
  // Two writers, alternating contents to preserve the parity map.
  threads.emplace_back([&] {
    for (int i = 0; !stop.load(std::memory_order_relaxed); ++i) {
      if (!db.UpdateRelation("R", Relation(i % 2 == 0 ? r1 : r0)).ok()) {
        failures.fetch_add(1);
        return;
      }
    }
  });
  threads.emplace_back([&] {
    for (int i = 0; !stop.load(std::memory_order_relaxed); ++i) {
      if (!db.UpdateRelation("S", Relation(i % 2 == 0 ? s1 : s0)).ok()) {
        failures.fetch_add(1);
        return;
      }
    }
  });
  // Four readers: every query's result must be byte-identical to the
  // expected answer for the snapshot the session captured, and
  // re-querying the same session must reproduce it exactly.
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < 25; ++i) {
        Session session = db.OpenSession();
        uint64_t rv = *session.relation_version("R");
        uint64_t sv = *session.relation_version("S");
        QueryOptions options;
        options.xjoin.num_threads = (i % 3 == 0) ? 2 : 1;
        auto first = session.Query(q, options);
        auto second = session.Query(q, options);
        if (!first.ok() || !second.ok() ||
            first->ToTuples() != expected[rv % 2][sv % 2] ||
            second->ToTuples() != first->ToTuples()) {
          failures.fetch_add(1);
          return;
        }
      }
    });
  }
  for (size_t t = 2; t < threads.size(); ++t) threads[t].join();
  stop.store(true);
  threads[0].join();
  threads[1].join();
  EXPECT_EQ(failures.load(), 0);
}

// Set difference of two relations expressed as a RelationDelta: the
// batch that morphs `from` into `to` when applied.
RelationDelta DiffDelta(const Relation& from, const Relation& to) {
  std::vector<Tuple> from_rows = from.ToTuples();
  std::vector<Tuple> to_rows = to.ToTuples();
  std::sort(from_rows.begin(), from_rows.end());
  std::sort(to_rows.begin(), to_rows.end());
  RelationDelta delta;
  std::set_difference(to_rows.begin(), to_rows.end(), from_rows.begin(),
                      from_rows.end(), std::back_inserter(delta.inserts));
  std::set_difference(from_rows.begin(), from_rows.end(), to_rows.begin(),
                      to_rows.end(), std::back_inserter(delta.deletes));
  return delta;
}

// The delta-path twin of ConcurrentReadersSeeConsistentSnapshots:
// writers morph R and S between two contents via ApplyRelationDelta
// (rebuilding the cached tries under the new version) while readers
// demand results byte-identical to some consistent snapshot, on a
// database caching at most `plan_capacity` plans.
void CheckConcurrentDeltaWriters(size_t plan_capacity) {
  MultiModelDatabase db;
  db.SetPlanCacheCapacity(plan_capacity);
  ASSERT_TRUE(db.RegisterRelationCsv("R", MakeCsv("A", "B", 40, 5, 0)).ok());
  ASSERT_TRUE(db.RegisterRelationCsv("S", MakeCsv("B", "C", 40, 5, 0)).ok());
  auto parse = [&](const std::string& csv) {
    auto rel = ReadCsv(csv, CsvOptions{}, db.mutable_dictionary());
    EXPECT_TRUE(rel.ok());
    return *std::move(rel);
  };
  const Relation r0 = parse(MakeCsv("A", "B", 40, 5, 0));
  const Relation r1 = parse(MakeCsv("A", "B", 40, 5, 100));
  const Relation s0 = parse(MakeCsv("B", "C", 40, 5, 0));
  const Relation s1 = parse(MakeCsv("B", "C", 40, 5, 100));

  // Version parity map, same invariant as the rebuild-path test: the
  // precompute below ends at (r0, s0) with both versions even, and
  // every ApplyRelationDelta bumps exactly one version while flipping
  // that relation's contents.
  const std::string q = "Q(*) := R, S";
  QueryOptions pinned;
  pinned.xjoin.attribute_order = {"A", "B", "C"};
  std::vector<Tuple> expected[2][2];
  expected[0][0] = db.OpenSession().Query(q, pinned)->ToTuples();
  ASSERT_TRUE(db.ApplyRelationDelta("S", DiffDelta(s0, s1)).ok());  // S v1
  expected[0][1] = db.OpenSession().Query(q, pinned)->ToTuples();
  ASSERT_TRUE(db.ApplyRelationDelta("R", DiffDelta(r0, r1)).ok());  // R v1
  expected[1][1] = db.OpenSession().Query(q, pinned)->ToTuples();
  ASSERT_TRUE(db.ApplyRelationDelta("S", DiffDelta(s1, s0)).ok());  // S v2
  expected[1][0] = db.OpenSession().Query(q, pinned)->ToTuples();
  ASSERT_TRUE(db.ApplyRelationDelta("R", DiffDelta(r1, r0)).ok());  // R v2
  ASSERT_NE(expected[0][0], expected[1][1]);

  const RelationDelta r_fwd = DiffDelta(r0, r1), r_back = DiffDelta(r1, r0);
  const RelationDelta s_fwd = DiffDelta(s0, s1), s_back = DiffDelta(s1, s0);
  std::atomic<bool> stop{false};
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  threads.reserve(6);  // gcc 12 -Werror: avoid the _M_realloc_insert FP
  threads.emplace_back([&] {
    for (int i = 0; !stop.load(std::memory_order_relaxed); ++i) {
      if (!db.ApplyRelationDelta("R", i % 2 == 0 ? r_fwd : r_back).ok()) {
        failures.fetch_add(1);
        return;
      }
    }
  });
  threads.emplace_back([&] {
    for (int i = 0; !stop.load(std::memory_order_relaxed); ++i) {
      if (!db.ApplyRelationDelta("S", i % 2 == 0 ? s_fwd : s_back).ok()) {
        failures.fetch_add(1);
        return;
      }
    }
  });
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < 25; ++i) {
        Session session = db.OpenSession();
        uint64_t rv = *session.relation_version("R");
        uint64_t sv = *session.relation_version("S");
        QueryOptions options = pinned;
        options.xjoin.num_threads = (i % 3 == 0) ? 2 : 1;
        auto first = session.Query(q, options);
        auto second = session.Query(q, options);
        if (!first.ok() || !second.ok() ||
            first->ToTuples() != expected[rv % 2][sv % 2] ||
            second->ToTuples() != first->ToTuples()) {
          failures.fetch_add(1);
          return;
        }
      }
    });
  }
  for (size_t t = 2; t < threads.size(); ++t) threads[t].join();
  stop.store(true);
  threads[0].join();
  threads[1].join();
  EXPECT_EQ(failures.load(), 0);
  CacheStats stats = db.cache_stats();
  EXPECT_GT(stats.trie_patches, 0);
  // Misses racing to publish on the readers' two fingerprints
  // (num_threads 1 and 2) never grow the plan cache past capacity.
  EXPECT_LE(stats.plan_entries, stats.plan_capacity);
}

// Writers register distinct relations and documents while readers open
// sessions, list names and query. Every registration publishes a copy
// of the registry, so a lost update would drop a name: afterwards a
// fresh session must see every name, and each reader's view of the
// names only ever grows.
TEST_F(ServingTest, ConcurrentRegistrationLosesNoName) {
  // Exercised under TSan in CI.
  constexpr int kWriters = 4;
  constexpr int kPerWriter = 128;
  constexpr int kReaders = 2;
  std::atomic<int> writers_left{kWriters};
  std::atomic<int> writers_ready{0};
  std::atomic<int> failures{0};
  std::vector<std::string> relations = {"R", "S"};
  std::vector<std::string> documents;
  for (int w = 0; w < kWriters; ++w) {
    for (int i = 0; i < kPerWriter; ++i) {
      std::string name = "w" + std::to_string(w) + "_" + std::to_string(i);
      (i % 2 == 0 ? relations : documents).push_back(name);
    }
  }
  std::sort(relations.begin(), relations.end());
  std::sort(documents.begin(), documents.end());

  std::vector<std::thread> threads;
  for (int w = 0; w < kWriters; ++w) {
    threads.emplace_back([&, w] {
      // Start together, so registrations overlap as much as they can.
      writers_ready.fetch_add(1);
      while (writers_ready.load() < kWriters) std::this_thread::yield();
      for (int i = 0; i < kPerWriter; ++i) {
        std::string name = "w" + std::to_string(w) + "_" + std::to_string(i);
        Status st =
            i % 2 == 0
                ? db_.RegisterRelationCsv(name, "X,Y\n" + std::to_string(i) +
                                                    ",1\n")
                : db_.RegisterDocumentXml(name, "<a><b>1</b></a>");
        if (!st.ok()) failures.fetch_add(1);
      }
      writers_left.fetch_sub(1);
    });
  }
  for (int r = 0; r < kReaders; ++r) {
    threads.emplace_back([&] {
      std::vector<std::string> seen_relations;
      std::vector<std::string> seen_documents;
      do {
        Session session = db_.OpenSession();
        std::vector<std::string> rels = session.RelationNames();
        std::vector<std::string> docs = session.DocumentNames();
        if (!std::includes(rels.begin(), rels.end(), seen_relations.begin(),
                           seen_relations.end()) ||
            !std::includes(docs.begin(), docs.end(), seen_documents.begin(),
                           seen_documents.end())) {
          failures.fetch_add(1);
        }
        auto joined = session.Query(q_);
        if (!joined.ok()) failures.fetch_add(1);
        if (!docs.empty()) {
          auto twig = session.Query("Q(*) := " + docs.back() + ":a/b");
          if (!twig.ok() || twig->num_rows() != 1) failures.fetch_add(1);
        }
        seen_relations = std::move(rels);
        seen_documents = std::move(docs);
      } while (writers_left.load() > 0);
    });
  }
  for (std::thread& t : threads) t.join();

  EXPECT_EQ(failures.load(), 0);
  Session fresh = db_.OpenSession();
  EXPECT_EQ(fresh.RelationNames(), relations);
  EXPECT_EQ(fresh.DocumentNames(), documents);
}

TEST_F(ServingTest, ConcurrentDeltaWritersSeeConsistentSnapshots) {
  // Exercised under TSan in CI.
  for (size_t plan_capacity : {size_t{256}, size_t{1}}) {
    SCOPED_TRACE("plan capacity " + std::to_string(plan_capacity));
    CheckConcurrentDeltaWriters(plan_capacity);
  }
}

TEST_F(ServingTest, SnapshotPinsSurviveCompactionUnderLivePin) {
  // Regression: a session/prepared statement opened before a delta
  // keeps pinning the pre-update trie object. A delta must cache a new
  // trie (never rebuild in place), so evicting the cache and applying
  // deltas under the live pin cannot perturb the pinned snapshot.
  Session session = db_.OpenSession();
  auto prepared = session.Prepare(q_);
  ASSERT_TRUE(prepared.ok()) << prepared.status().ToString();
  auto expected = session.Execute(*prepared);
  ASSERT_TRUE(expected.ok());

  // The deltas rebuild the cached tries; the pinned plan must keep
  // executing against the old ones.
  RelationDelta delta;
  delta.inserts = {{db_.mutable_dictionary()->Intern("777"),
                    db_.mutable_dictionary()->Intern("777")}};
  ASSERT_TRUE(db_.ApplyRelationDelta("R", delta).ok());
  ASSERT_TRUE(db_.ApplyRelationDelta("S", delta).ok());
  EXPECT_GT(db_.cache_stats().trie_compactions, 0);

  auto after_patch = session.Execute(*prepared);
  ASSERT_TRUE(after_patch.ok());
  EXPECT_EQ(expected->ToTuples(), after_patch->ToTuples());

  // Evict everything; the pins alone keep the old storage alive.
  db_.ClearPlanCache();
  db_.ClearTrieCache();
  db_.SetTrieCacheBudget(0);
  auto after_evict = session.Execute(*prepared);
  ASSERT_TRUE(after_evict.ok());
  EXPECT_EQ(expected->ToTuples(), after_evict->ToTuples());
  auto session_query = session.Query(q_);
  ASSERT_TRUE(session_query.ok());
  EXPECT_EQ(expected->ToTuples(), session_query->ToTuples());

  // A fresh session sees the post-delta contents (one new join row).
  auto fresh = db_.OpenSession().Query(q_);
  ASSERT_TRUE(fresh.ok());
  EXPECT_EQ(fresh->num_rows(), expected->num_rows() + 1);
}

TEST_F(ServingTest, DeltaDropsReadingPlansAndTheNextQueryReprepares) {
  // Warm the plan cache, apply a delta, query again: the delta drops
  // the plan that reads R, so the next query misses and re-prepares,
  // pinning the tries the delta rebuilt without building one. The
  // re-prepared entry serves the query after it. The explicit head
  // gives both engines one column order.
  const std::string q = "Q(A, B, C) := R, S";
  ASSERT_TRUE(db_.OpenSession().Query(q).ok());
  CacheStats warm = db_.cache_stats();
  RelationDelta delta;
  delta.inserts = {{db_.mutable_dictionary()->Intern("888"),
                    db_.mutable_dictionary()->Intern("888")}};
  ASSERT_TRUE(db_.ApplyRelationDelta("R", delta).ok());
  Session session = db_.OpenSession();
  auto result = session.Query(q);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  CacheStats after = db_.cache_stats();
  EXPECT_EQ(after.plan_misses, warm.plan_misses + 1);
  EXPECT_EQ(after.plan_invalidations, warm.plan_invalidations + 1);
  EXPECT_EQ(after.plan_hits, warm.plan_hits);
  EXPECT_EQ(after.trie_misses, warm.trie_misses);
  EXPECT_EQ(after.plan_entries, warm.plan_entries);
  QueryOptions baseline;
  baseline.engine = Engine::kBaseline;
  auto expected = session.Query(q, baseline);
  ASSERT_TRUE(expected.ok()) << expected.status().ToString();
  auto lhs = result->ToTuples();
  auto rhs = expected->ToTuples();
  std::sort(lhs.begin(), lhs.end());
  std::sort(rhs.begin(), rhs.end());
  EXPECT_EQ(lhs, rhs);
  ASSERT_TRUE(db_.OpenSession().Query(q).ok());
  EXPECT_EQ(db_.cache_stats().plan_hits, after.plan_hits + 1);
}

TEST_F(ServingTest, BudgetMaxRowsReturnsResourceExhausted) {
  QueryOptions options;
  options.max_rows = 1;  // the join produces hundreds of rows
  auto result = db_.OpenSession().Query(q_, options);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kResourceExhausted)
      << result.status().ToString();
}

TEST_F(ServingTest, BudgetMaxBytesReturnsResourceExhausted) {
  QueryOptions options;
  options.max_bytes = 8;  // one column of one row
  auto result = db_.OpenSession().Query(q_, options);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kResourceExhausted);
}

TEST_F(ServingTest, BudgetDeadlineReturnsDeadlineExceeded) {
  QueryOptions options;
  options.deadline_micros = 1;  // any real execution takes longer
  auto result = db_.OpenSession().Query(q_, options);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kDeadlineExceeded)
      << result.status().ToString();
}

TEST_F(ServingTest, BaselineEngineThroughUnifiedOptions) {
  // Explicit head: Q(*) leaves the column order engine-defined
  // (expansion order vs combine order), the projection normalizes it.
  const std::string q = "Q(A, B, C) := R, S";
  QueryOptions options;
  options.engine = Engine::kBaseline;
  auto baseline = db_.OpenSession().Query(q, options);
  auto xjoin = db_.OpenSession().Query(q);
  ASSERT_TRUE(baseline.ok()) << baseline.status().ToString();
  ASSERT_TRUE(xjoin.ok());
  // Same rows (order may differ between engines).
  auto lhs = baseline->ToTuples();
  auto rhs = xjoin->ToTuples();
  std::sort(lhs.begin(), lhs.end());
  std::sort(rhs.begin(), rhs.end());
  EXPECT_EQ(lhs, rhs);
  // Budgets apply to the baseline too (post-hoc).
  options.max_rows = 1;
  auto budgeted = db_.OpenSession().Query(q, options);
  ASSERT_FALSE(budgeted.ok());
  EXPECT_EQ(budgeted.status().code(), StatusCode::kResourceExhausted);
}

TEST_F(ServingTest, SessionPinsSurviveCacheEvictionAndUpdates) {
  Session session = db_.OpenSession();
  auto prepared = session.Prepare(q_);
  ASSERT_TRUE(prepared.ok()) << prepared.status().ToString();
  auto expected = session.Execute(*prepared);
  ASSERT_TRUE(expected.ok());

  // Evict everything the caches hold; the prepared statement's pins
  // must keep its tries and storage alive.
  db_.ClearPlanCache();
  db_.ClearTrieCache();
  db_.SetTrieCacheBudget(0);
  auto after_eviction = session.Execute(*prepared);
  ASSERT_TRUE(after_eviction.ok());
  EXPECT_EQ(expected->ToTuples(), after_eviction->ToTuples());

  // Replace both inputs; the statement still executes against the
  // snapshot it was prepared on.
  for (const char* name : {"R", "S"}) {
    Schema schema = (*session.relation(name))->schema();
    ASSERT_TRUE(db_.UpdateRelation(name, Relation(schema)).ok());
  }
  auto after_update = session.Execute(*prepared);
  ASSERT_TRUE(after_update.ok());
  EXPECT_EQ(expected->ToTuples(), after_update->ToTuples());
  // Session queries also still see the old snapshot...
  auto session_query = session.Query(q_);
  ASSERT_TRUE(session_query.ok());
  EXPECT_EQ(expected->ToTuples(), session_query->ToTuples());
  // ...while a fresh session sees the (now empty) relations.
  auto fresh = db_.OpenSession().Query(q_);
  ASSERT_TRUE(fresh.ok());
  EXPECT_EQ(fresh->num_rows(), 0u);
}

// Both relation writers drop the plans that read R after publishing,
// and only a plan prepared on the current registry is published: an old
// session's lookups miss on the new entry and build privately, without
// evicting or replacing it, while a new session's lookups keep hitting.
void ExpectOldSessionDoesNotPoisonTheCache(
    MultiModelDatabase* db, const std::string& q,
    const std::function<Status(const Session&)>& write) {
  Session old_session = db->OpenSession();
  ASSERT_TRUE(old_session.Query(q).ok());  // seeds the cache at v0

  // v1, same contents.
  ASSERT_TRUE(write(old_session).ok());

  // A new session must re-prepare (the cached plan is v0)...
  Session new_session = db->OpenSession();
  ASSERT_TRUE(new_session.Query(q).ok());
  CacheStats after_new = db->cache_stats();

  // ...and the old session's private rebuilds must not evict or
  // replace the fresh entry.
  ASSERT_TRUE(old_session.Query(q).ok());
  ASSERT_TRUE(new_session.Query(q).ok());
  CacheStats final_stats = db->cache_stats();
  EXPECT_EQ(final_stats.plan_hits, after_new.plan_hits + 1);
  EXPECT_EQ(final_stats.plan_misses, after_new.plan_misses + 1);
  EXPECT_EQ(final_stats.plan_entries, after_new.plan_entries);
}

TEST_F(ServingTest, OldSessionPlansDoNotPoisonTheCacheForNewSessions) {
  auto update = [this](const Session& old_session) {
    return db_.UpdateRelation("R", **old_session.relation("R"));
  };
  ExpectOldSessionDoesNotPoisonTheCache(&db_, q_, update);
}

TEST_F(ServingTest, OldSessionPlansDoNotPoisonTheCacheAfterADelta) {
  auto delete_absent = [this](const Session&) {
    // Deleting an absent tuple bumps the version and changes no row.
    RelationDelta delta;
    const int64_t absent = db_.mutable_dictionary()->Intern("absent");
    delta.deletes = {{absent, absent}};
    return db_.ApplyRelationDelta("R", delta);
  };
  ExpectOldSessionDoesNotPoisonTheCache(&db_, q_, delete_absent);
}

// ---------------------------------------------------------------------------
// Cooperative cancellation.

TEST_F(ServingTest, SharedCallTokenCancelsEveryCallThatCarriesIt) {
  // Session- or statement-wide cancellation is one token passed in
  // every call's options: each call that carries it fails kCancelled
  // with the reason, whatever the entry point or session, and calls
  // without it are unaffected.
  Session session = db_.OpenSession();
  auto prepared = session.Prepare(q_);
  ASSERT_TRUE(prepared.ok()) << prepared.status().ToString();
  CancellationToken shared;
  shared.Cancel("tearing the session down");
  QueryOptions doomed;
  doomed.cancel = &shared;
  Session other = db_.OpenSession();
  for (const Result<Relation>& result :
       {session.Query(q_, doomed), session.Execute(*prepared, doomed),
        other.Query(q_, doomed), other.Execute(*prepared, doomed)}) {
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.status().code(), StatusCode::kCancelled)
        << result.status().ToString();
    EXPECT_NE(result.status().ToString().find("tearing the session down"),
              std::string::npos)
        << result.status().ToString();
  }
  EXPECT_TRUE(session.Query(q_).ok());
  EXPECT_TRUE(session.Execute(*prepared).ok());
  EXPECT_TRUE(other.Query(q_).ok());
  EXPECT_EQ(db_.cache_stats().admission_cancelled, 4);
}

TEST_F(ServingTest, CancelledCallTokenStopsPrepare) {
  // Prepare watches the call's token: a cancelled call builds no trie,
  // publishes no plan and takes no admission slot, yet still counts as
  // cancelled.
  Session session = db_.OpenSession();
  CancellationToken token;
  token.Cancel("session closed");
  QueryOptions options;
  options.cancel = &token;
  for (int attempt = 0; attempt < 2; ++attempt) {
    auto result = session.Query(q_, options);
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.status().code(), StatusCode::kCancelled)
        << result.status().ToString();
    CacheStats stats = db_.cache_stats();
    EXPECT_EQ(stats.trie_misses, 0);
    EXPECT_EQ(stats.trie_entries, 0u);
    EXPECT_EQ(stats.plan_misses, 0);
    EXPECT_EQ(stats.plan_entries, 0u);
    EXPECT_EQ(stats.admission_admitted, 0);
  }
  EXPECT_EQ(db_.cache_stats().admission_cancelled, 2);
}

TEST_F(ServingTest, OnlyTokenedQueriesCountCancelChecks) {
  // With no token and no limit the tracker is unlimited and the engine
  // runs its unbudgeted path: no cancellation polls are counted. The
  // same query with a live token counts them; the rows are the same.
  Session session = db_.OpenSession();
  Metrics plain_metrics;
  QueryOptions plain;
  plain.metrics = &plain_metrics;
  auto untokened = session.Query(q_, plain);
  ASSERT_TRUE(untokened.ok()) << untokened.status().ToString();
  ASSERT_GT(untokened->num_rows(), 0u);
  EXPECT_EQ(plain_metrics.counters().count("gj.cancel_checks"), 0u);

  CancellationToken live;
  Metrics tokened_metrics;
  QueryOptions tokened;
  tokened.metrics = &tokened_metrics;
  tokened.cancel = &live;
  auto with_token = session.Query(q_, tokened);
  ASSERT_TRUE(with_token.ok()) << with_token.status().ToString();
  EXPECT_GT(tokened_metrics.Get("gj.cancel_checks"), 0);
  EXPECT_EQ(untokened->ToTuples(), with_token->ToTuples());
}

TEST_F(ServingTest, OptionsTokenCancelsMidQueryFromAnotherThread) {
  // A join large enough that the canceller reliably lands mid-run; the
  // token makes it fail kCancelled instead of materializing ~3M rows.
  ASSERT_TRUE(
      db_.RegisterRelationCsv("RB", MakeCsv("A", "B", 3000, 3, 0)).ok());
  ASSERT_TRUE(
      db_.RegisterRelationCsv("SB", MakeCsv("C", "B", 3000, 3, 0)).ok());
  CancellationToken token;
  QueryOptions options;
  options.cancel = &token;
  std::thread canceller([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    token.Cancel("operator abort");
  });
  auto result = db_.OpenSession().Query("QB(*) := RB, SB", options);
  canceller.join();
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kCancelled)
      << result.status().ToString();
  EXPECT_GE(db_.cache_stats().admission_cancelled, 1);
}

TEST_F(ServingTest, CancelledQueriesDoNotPoisonCaches) {
  const auto expected = db_.OpenSession().Query(q_)->ToTuples();
  CacheStats warm = db_.cache_stats();
  CancellationToken token;
  token.Cancel("cancelled before it started");
  QueryOptions options;
  options.cancel = &token;
  for (int i = 0; i < 3; ++i) {
    auto result = db_.OpenSession().Query(q_, options);
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.status().code(), StatusCode::kCancelled);
  }
  // The warm plan/trie entries survive and still serve correct results.
  auto after = db_.OpenSession().Query(q_);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after->ToTuples(), expected);
  CacheStats stats = db_.cache_stats();
  EXPECT_EQ(stats.plan_entries, warm.plan_entries);
  EXPECT_EQ(stats.trie_entries, warm.trie_entries);
  EXPECT_EQ(stats.plan_invalidations, warm.plan_invalidations);
  EXPECT_GE(stats.admission_cancelled, 3);
}

TEST_F(ServingTest, CancellationTortureNeverYieldsPartialResults) {
  // Racing cancellers against live queries (the TSan CI target): every
  // outcome must be either the complete, correct result or a clean
  // typed kCancelled — never a partial OK and never a data race.
  const auto expected = db_.OpenSession().Query(q_)->ToTuples();
  std::atomic<int> failures{0};
  std::vector<std::thread> workers;
  workers.reserve(4);
  for (int t = 0; t < 4; ++t) {
    workers.emplace_back([&, t] {
      for (int i = 0; i < 15; ++i) {
        CancellationToken token;
        std::thread canceller([&] {
          std::this_thread::sleep_for(
              std::chrono::microseconds((t * 37 + i * 13) % 150));
          token.Cancel("torture");
        });
        QueryOptions options;
        options.cancel = &token;
        options.xjoin.num_threads = (i % 2 == 0) ? 2 : 1;
        auto result = db_.OpenSession().Query(q_, options);
        canceller.join();
        if (result.ok()) {
          if (result->ToTuples() != expected) failures.fetch_add(1);
        } else if (result.status().code() != StatusCode::kCancelled) {
          failures.fetch_add(1);
        }
      }
    });
  }
  for (auto& w : workers) w.join();
  EXPECT_EQ(failures.load(), 0);
}

// ---------------------------------------------------------------------------
// TenantPool admission gate (unit level, no database).

TEST(TenantPoolTest, AdmitsUpToLimitThenQueuesFifo) {
  TenantPoolOptions options;
  options.max_concurrent = 1;
  options.max_queue_depth = 4;
  options.queue_deadline_micros = 5 * 1000 * 1000;
  TenantPool pool("p", options);
  ASSERT_TRUE(pool.Admit(nullptr).ok());

  std::atomic<int> order{0};
  std::atomic<int> first_pos{-1};
  std::atomic<int> second_pos{-1};
  std::thread first([&] {
    bool queued = false;
    EXPECT_TRUE(pool.Admit(nullptr, &queued).ok());
    EXPECT_TRUE(queued);
    first_pos.store(order.fetch_add(1));
    pool.Release();
  });
  while (pool.stats().waiting < 1) std::this_thread::yield();
  std::thread second([&] {
    bool queued = false;
    EXPECT_TRUE(pool.Admit(nullptr, &queued).ok());
    EXPECT_TRUE(queued);
    second_pos.store(order.fetch_add(1));
    pool.Release();
  });
  while (pool.stats().waiting < 2) std::this_thread::yield();

  pool.Release();  // frees the slot: first must win, then second
  first.join();
  second.join();
  EXPECT_LT(first_pos.load(), second_pos.load());
  TenantPoolStats stats = pool.stats();
  EXPECT_EQ(stats.admitted, 3);
  EXPECT_EQ(stats.queued, 2);
  EXPECT_EQ(stats.rejected, 0);
  EXPECT_EQ(stats.running, 0);
  EXPECT_EQ(stats.waiting, 0);
}

TEST(TenantPoolTest, QueueFullAndQueueDeadlineRejectTyped) {
  TenantPoolOptions no_queue;
  no_queue.max_concurrent = 1;
  no_queue.max_queue_depth = 0;
  TenantPool pool("edge", no_queue);
  ASSERT_TRUE(pool.Admit(nullptr).ok());
  Status full = pool.Admit(nullptr);
  EXPECT_EQ(full.code(), StatusCode::kResourceExhausted);
  EXPECT_NE(full.ToString().find("saturated"), std::string::npos)
      << full.ToString();
  pool.Release();

  TenantPoolOptions short_wait;
  short_wait.max_concurrent = 1;
  short_wait.max_queue_depth = 2;
  short_wait.queue_deadline_micros = 2000;
  TenantPool slow("slow", short_wait);
  ASSERT_TRUE(slow.Admit(nullptr).ok());
  bool queued = false;
  Status timeout = slow.Admit(nullptr, &queued);
  EXPECT_TRUE(queued);
  EXPECT_EQ(timeout.code(), StatusCode::kResourceExhausted);
  EXPECT_NE(timeout.ToString().find("timed out"), std::string::npos)
      << timeout.ToString();
  slow.Release();
  EXPECT_EQ(pool.stats().rejected, 1);
  EXPECT_EQ(slow.stats().rejected, 1);
}

TEST(TenantPoolTest, CancelWhileQueuedCountsCancelledAndUnblocksPeers) {
  TenantPoolOptions options;
  options.max_concurrent = 1;
  options.max_queue_depth = 4;
  options.queue_deadline_micros = 5 * 1000 * 1000;
  TenantPool pool("p", options);
  ASSERT_TRUE(pool.Admit(nullptr).ok());

  CancellationToken token;
  BudgetTracker budget(/*max_rows=*/0, /*max_bytes=*/0,
                       /*deadline_micros=*/0, &token);
  Status status;
  std::thread waiter([&] { status = pool.Admit(&budget); });
  while (pool.stats().waiting < 1) std::this_thread::yield();
  token.Cancel("client went away");
  waiter.join();
  EXPECT_EQ(status.code(), StatusCode::kCancelled) << status.ToString();
  EXPECT_NE(status.ToString().find("while queued for tenant pool 'p'"),
            std::string::npos)
      << status.ToString();
  TenantPoolStats stats = pool.stats();
  EXPECT_EQ(stats.cancelled, 1);
  EXPECT_EQ(stats.waiting, 0);
  pool.Release();
}

// ---------------------------------------------------------------------------
// Tenant admission through the database.

TEST_F(ServingTest, UnknownTenantIsNotFound) {
  QueryOptions options;
  options.tenant = "nobody";
  auto result = db_.OpenSession().Query(q_, options);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kNotFound);
  EXPECT_NE(result.status().ToString().find("CreateTenantPool"),
            std::string::npos);
}

TEST_F(ServingTest, TenantPoolRegistryCrud) {
  EXPECT_TRUE(db_.TenantPoolNames().empty());
  ASSERT_TRUE(db_.CreateTenantPool("acme").ok());
  ASSERT_TRUE(db_.CreateTenantPool("initech").ok());
  EXPECT_EQ(db_.CreateTenantPool("acme").code(), StatusCode::kAlreadyExists);
  EXPECT_EQ(db_.TenantPoolNames(),
            (std::vector<std::string>{"acme", "initech"}));
  EXPECT_EQ(db_.tenant_pool_stats("ghost").status().code(),
            StatusCode::kNotFound);
  EXPECT_EQ(db_.RemoveTenantPool("ghost").code(), StatusCode::kNotFound);

  // History folds into the db-wide totals on removal.
  QueryOptions options;
  options.tenant = "acme";
  ASSERT_TRUE(db_.OpenSession().Query(q_, options).ok());
  int64_t admitted_before = db_.cache_stats().admission_admitted;
  ASSERT_TRUE(db_.RemoveTenantPool("acme").ok());
  EXPECT_EQ(db_.cache_stats().admission_admitted, admitted_before);
  EXPECT_EQ(db_.TenantPoolNames(), (std::vector<std::string>{"initech"}));
}

TEST_F(ServingTest, SaturatedPoolRejectsWithQueueContext) {
  TenantPoolOptions popt;
  popt.max_concurrent = 1;
  popt.max_queue_depth = 0;  // saturation rejects outright
  ASSERT_TRUE(db_.CreateTenantPool("acme", popt).ok());
  ASSERT_TRUE(
      db_.RegisterRelationCsv("RB", MakeCsv("A", "B", 3000, 3, 0)).ok());
  ASSERT_TRUE(
      db_.RegisterRelationCsv("SB", MakeCsv("C", "B", 3000, 3, 0)).ok());

  CancellationToken blocker_token;
  QueryOptions blocker_options;
  blocker_options.tenant = "acme";
  blocker_options.cancel = &blocker_token;
  std::atomic<bool> blocker_done{false};
  std::thread blocker([&] {
    // Holds the pool's only slot until cancelled (the join would
    // otherwise materialize ~3M rows).
    auto result = db_.OpenSession().Query("QB(*) := RB, SB", blocker_options);
    EXPECT_FALSE(result.ok());
    blocker_done.store(true);
  });
  while (!blocker_done.load() &&
         (*db_.tenant_pool_stats("acme")).running < 1) {
    std::this_thread::yield();
  }
  if (blocker_done.load()) {
    blocker.join();
    FAIL() << "blocker finished before saturation was observed";
  }

  QueryOptions options;
  options.tenant = "acme";
  auto rejected = db_.OpenSession().Query(q_, options);
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), StatusCode::kResourceExhausted)
      << rejected.status().ToString();
  EXPECT_NE(rejected.status().ToString().find("saturated"), std::string::npos)
      << rejected.status().ToString();

  blocker_token.Cancel("test done");
  blocker.join();
  TenantPoolStats stats = *db_.tenant_pool_stats("acme");
  EXPECT_EQ(stats.admitted, 1);
  EXPECT_EQ(stats.rejected, 1);
  EXPECT_EQ(stats.cancelled, 1);
  EXPECT_EQ(stats.running, 0);
}

TEST_F(ServingTest, QueuedQueryTimesOutWithTypedError) {
  TenantPoolOptions popt;
  popt.max_concurrent = 1;
  popt.max_queue_depth = 4;
  popt.queue_deadline_micros = 3000;
  ASSERT_TRUE(db_.CreateTenantPool("acme", popt).ok());
  ASSERT_TRUE(
      db_.RegisterRelationCsv("RB", MakeCsv("A", "B", 3000, 3, 0)).ok());
  ASSERT_TRUE(
      db_.RegisterRelationCsv("SB", MakeCsv("C", "B", 3000, 3, 0)).ok());

  CancellationToken blocker_token;
  QueryOptions blocker_options;
  blocker_options.tenant = "acme";
  blocker_options.cancel = &blocker_token;
  std::atomic<bool> blocker_done{false};
  std::thread blocker([&] {
    (void)db_.OpenSession().Query("QB(*) := RB, SB", blocker_options);
    blocker_done.store(true);
  });
  while (!blocker_done.load() &&
         (*db_.tenant_pool_stats("acme")).running < 1) {
    std::this_thread::yield();
  }
  if (blocker_done.load()) {
    blocker.join();
    FAIL() << "blocker finished before saturation was observed";
  }

  QueryOptions options;
  options.tenant = "acme";
  auto timed_out = db_.OpenSession().Query(q_, options);
  ASSERT_FALSE(timed_out.ok());
  EXPECT_EQ(timed_out.status().code(), StatusCode::kResourceExhausted);
  EXPECT_NE(timed_out.status().ToString().find("timed out"),
            std::string::npos)
      << timed_out.status().ToString();
  blocker_token.Cancel("test done");
  blocker.join();
  EXPECT_EQ((*db_.tenant_pool_stats("acme")).queued, 1);
}

TEST_F(ServingTest, AggregateCeilingTripsAndDrains) {
  TenantPoolOptions popt;
  popt.max_inflight_rows = 50;  // q_ materializes hundreds of rows
  ASSERT_TRUE(db_.CreateTenantPool("tiny", popt).ok());
  QueryOptions options;
  options.tenant = "tiny";
  auto result = db_.OpenSession().Query(q_, options);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kResourceExhausted);
  EXPECT_NE(result.status().ToString().find("tenant pool 'tiny'"),
            std::string::npos)
      << result.status().ToString();
  // The failed query's charges were released: the pool drained and a
  // differently-limited pool admits the same query fine.
  EXPECT_EQ((*db_.tenant_pool_stats("tiny")).inflight_rows, 0);
  EXPECT_EQ((*db_.tenant_pool_stats("tiny")).inflight_bytes, 0);
  ASSERT_TRUE(db_.CreateTenantPool("roomy").ok());
  options.tenant = "roomy";
  EXPECT_TRUE(db_.OpenSession().Query(q_, options).ok());
}

TEST_F(ServingTest, AdmissionCountersSurfaceEverywhere) {
  ASSERT_TRUE(db_.CreateTenantPool("acme").ok());
  Session session = db_.OpenSession();
  QueryOptions tenanted;
  tenanted.tenant = "acme";
  ASSERT_TRUE(session.Query(q_, tenanted).ok());
  ASSERT_TRUE(session.Query(q_).ok());  // pool-less admission

  CacheStats stats = db_.cache_stats();
  EXPECT_GE(stats.admission_admitted, 2);
  EXPECT_EQ(stats.admission_rejected, 0);
  TenantPoolStats pool = *db_.tenant_pool_stats("acme");
  EXPECT_EQ(pool.admitted, 1);
  EXPECT_EQ(pool.running, 0);

  // Explain surfaces the same counters.
  auto explain = session.Explain(q_);
  ASSERT_TRUE(explain.ok());
  EXPECT_NE(explain->find("admission:"), std::string::npos) << *explain;

  // Per-query metrics carry the admitted marker.
  Metrics metrics;
  QueryOptions with_metrics;
  with_metrics.metrics = &metrics;
  ASSERT_TRUE(session.Query(q_, with_metrics).ok());
  EXPECT_EQ(metrics.Get("db.admission.admitted"), 1);
}

// ---------------------------------------------------------------------------
// Drain paths of the network front-end: the same serving core behind a
// live loopback socket. The scenarios that cannot be reached from the
// in-process API — shutdown racing queued and executing requests,
// clients vanishing mid-query — land here.

// Connects to `server` and sends `query` without reading the reply;
// returns the raw fd (caller closes).
int SendRawQuery(const net::XJoinServer& server, const std::string& query) {
  auto fd = net::ConnectTcp("127.0.0.1", server.port(),
                            net::SteadyNowMicros() + 2'000'000);
  EXPECT_TRUE(fd.ok()) << fd.status().ToString();
  if (!fd.ok()) return -1;
  net::QueryRequest request;
  request.text = query;
  const Status wrote =
      net::WriteFrame(*fd, net::FrameType::kQuery,
                      net::EncodeQueryRequest(request),
                      net::SteadyNowMicros() + 2'000'000);
  EXPECT_TRUE(wrote.ok()) << wrote.ToString();
  return *fd;
}

// Reads one kError frame off `fd` and returns the decoded Status.
Status ReadErrorReply(int fd) {
  auto reply = net::ReadFrame(fd, net::SteadyNowMicros() + 10'000'000);
  EXPECT_TRUE(reply.ok()) << reply.status().ToString();
  if (!reply.ok()) return reply.status();
  EXPECT_EQ(reply->first.type, net::FrameType::kError);
  Status decoded;
  const Status parsed = net::DecodeErrorStatus(reply->second, &decoded);
  EXPECT_TRUE(parsed.ok()) << parsed.ToString();
  return parsed.ok() ? decoded : parsed;
}

class NetDrainTest : public ServingTest {
 protected:
  void SetUp() override {
    ServingTest::SetUp();
    // The blocker join (~3M output rows) holds a worker busy long
    // enough for shutdown and disconnect races to be forced.
    ASSERT_TRUE(
        db_.RegisterRelationCsv("RB", MakeCsv("A", "B", 3000, 3, 0)).ok());
    ASSERT_TRUE(
        db_.RegisterRelationCsv("SB", MakeCsv("C", "B", 3000, 3, 0)).ok());
  }

  void StartServer(net::ServerOptions options) {
    server_ = std::make_unique<net::XJoinServer>(&db_, options);
    const Status started = server_->Start();
    ASSERT_TRUE(started.ok()) << started.ToString();
  }

  bool WaitFor(const std::function<bool()>& pred, int64_t timeout_micros) {
    const int64_t deadline = net::SteadyNowMicros() + timeout_micros;
    while (net::SteadyNowMicros() < deadline) {
      if (pred()) return true;
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return pred();
  }

  std::unique_ptr<net::XJoinServer> server_;
  const std::string blocker_q_ = "QB(*) := RB, SB";
};

TEST_F(NetDrainTest, ShutdownWhileRunningCancelsAtDrainDeadline) {
  net::ServerOptions options;
  options.num_workers = 1;
  StartServer(options);
  const int blocker = SendRawQuery(*server_, blocker_q_);
  ASSERT_GE(blocker, 0);
  ASSERT_TRUE(WaitFor([&] { return server_->stats().inflight >= 1; },
                      5'000'000))
      << "blocker query never started executing";

  // The drain deadline is far shorter than the blocker join: phase 1
  // expires, phase 2 cancels the in-flight token, and the client reads
  // a typed kCancelled before the socket closes.
  server_->Shutdown(/*drain_deadline_micros=*/25'000);
  if (server_->stats().cancelled_drain == 0) {
    ::close(blocker);
    FAIL() << "blocker finished before the drain deadline was enforced";
  }
  const Status cancelled = ReadErrorReply(blocker);
  EXPECT_EQ(cancelled.code(), StatusCode::kCancelled)
      << cancelled.ToString();
  EXPECT_NE(cancelled.ToString().find("drain deadline"), std::string::npos)
      << cancelled.ToString();
  ::close(blocker);
  EXPECT_EQ(server_->stats().inflight, 0);
}

TEST_F(NetDrainTest, ShutdownWhileQueuedCancelsTheQueuedRequestToo) {
  net::ServerOptions options;
  options.num_workers = 1;  // the second request must queue
  options.max_inflight = 4;
  StartServer(options);
  const int running = SendRawQuery(*server_, blocker_q_);
  ASSERT_GE(running, 0);
  ASSERT_TRUE(WaitFor([&] { return server_->stats().inflight >= 1; },
                      5'000'000));
  const int queued = SendRawQuery(*server_, blocker_q_);
  ASSERT_GE(queued, 0);
  ASSERT_TRUE(WaitFor([&] { return server_->stats().inflight >= 2; },
                      5'000'000))
      << "second request never reached the queue";

  server_->Shutdown(/*drain_deadline_micros=*/25'000);
  if (server_->stats().cancelled_drain == 0) {
    ::close(running);
    ::close(queued);
    FAIL() << "blockers finished before the drain deadline was enforced";
  }
  // Both the executing and the still-queued request end kCancelled —
  // the queued one runs against an already-cancelled token and unwinds
  // immediately.
  EXPECT_EQ(ReadErrorReply(running).code(), StatusCode::kCancelled);
  EXPECT_EQ(ReadErrorReply(queued).code(), StatusCode::kCancelled);
  ::close(running);
  ::close(queued);
  EXPECT_EQ(server_->stats().inflight, 0);
  EXPECT_GE(server_->stats().cancelled_drain, 2);
}

TEST_F(NetDrainTest, ClientDisconnectMidQueryCancelsCooperatively) {
  net::ServerOptions options;
  options.num_workers = 1;
  StartServer(options);
  const int blocker = SendRawQuery(*server_, blocker_q_);
  ASSERT_GE(blocker, 0);
  ASSERT_TRUE(WaitFor([&] { return server_->stats().inflight >= 1; },
                      5'000'000));

  // Hang up without reading: the event loop notices, cancels the
  // request token, and the engine unwinds within one budget-check
  // interval — long before the join would have finished.
  ::close(blocker);
  EXPECT_TRUE(WaitFor(
      [&] {
        const net::ServerStats stats = server_->stats();
        return stats.cancelled_disconnect >= 1 && stats.inflight == 0;
      },
      10'000'000))
      << "disconnect did not cancel the in-flight query";

  // The serving core is unharmed: a clean request still answers.
  const int fd = SendRawQuery(*server_, q_);
  ASSERT_GE(fd, 0);
  auto reply = net::ReadFrame(fd, net::SteadyNowMicros() + 10'000'000);
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  EXPECT_EQ(reply->first.type, net::FrameType::kResult);
  ::close(fd);
  server_->Shutdown();
}

TEST_F(NetDrainTest, DisconnectTortureLeavesServerConsistent) {
  // TSan leg: a storm of connections that vanish at every stage of the
  // request lifecycle — before writing, mid-header, after the query is
  // queued or executing — must leave no race, no leaked connection,
  // and a server that still answers correctly.
  net::ServerOptions options;
  options.num_workers = 2;
  StartServer(options);
  for (int i = 0; i < 30; ++i) {
    auto fd = net::ConnectTcp("127.0.0.1", server_->port(),
                              net::SteadyNowMicros() + 2'000'000);
    ASSERT_TRUE(fd.ok()) << fd.status().ToString();
    switch (i % 4) {
      case 0:  // connect, say nothing, vanish
        break;
      case 1: {  // torn header, then vanish
        const uint8_t half[6] = {0x49, 0x4f, 0x4a, 0x58, 1, 1};
        (void)net::WriteFull(*fd, half, sizeof(half),
                             net::SteadyNowMicros() + 1'000'000);
        break;
      }
      case 2: {  // cheap query, vanish without reading the result
        net::QueryRequest request;
        request.text = q_;
        (void)net::WriteFrame(*fd, net::FrameType::kQuery,
                              net::EncodeQueryRequest(request),
                              net::SteadyNowMicros() + 1'000'000);
        break;
      }
      case 3: {  // expensive query, vanish mid-execution
        net::QueryRequest request;
        request.text = blocker_q_;
        (void)net::WriteFrame(*fd, net::FrameType::kQuery,
                              net::EncodeQueryRequest(request),
                              net::SteadyNowMicros() + 1'000'000);
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
        break;
      }
    }
    ::close(*fd);
  }
  // Every in-flight remnant drains (disconnect cancellation), and the
  // server still serves a correct answer afterwards.
  EXPECT_TRUE(WaitFor([&] { return server_->stats().inflight == 0; },
                      30'000'000));
  const auto expected = db_.OpenSession().Query(q_)->ToTuples();
  const int fd = SendRawQuery(*server_, q_);
  ASSERT_GE(fd, 0);
  auto reply = net::ReadFrame(fd, net::SteadyNowMicros() + 10'000'000);
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  ASSERT_EQ(reply->first.type, net::FrameType::kResult);
  auto rows = net::DecodeQueryResultSet(reply->second);
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows->rows.size(), expected.size());
  ::close(fd);
  server_->Shutdown();
  const net::ServerStats stats = server_->stats();
  EXPECT_EQ(stats.active_connections, 0);
  EXPECT_EQ(stats.inflight, 0);
}

#ifdef XJOIN_FAULTS_ENABLED
// ---------------------------------------------------------------------------
// Deterministic fault injection (XJOIN_FAULTS=ON builds only).

TEST_F(ServingTest, FaultTrieBuildFailsQueryWithoutPoisoningCache) {
  ScopedFaultInjection scoped;
  FaultInjector::Global().FailAt("trie.build", 1);
  auto result = db_.OpenSession().Query(q_);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInternal)
      << result.status().ToString();
  EXPECT_GE(FaultInjector::Global().hits("trie.build"), 1);
  // Nothing broken was cached: disarmed, the same query succeeds.
  FaultInjector::Global().Disarm();
  EXPECT_TRUE(db_.OpenSession().Query(q_).ok());
}

TEST_F(ServingTest, FaultCompactionFailureLeavesOldVersionIntact) {
  ScopedFaultInjection scoped;
  const auto before = db_.OpenSession().Query(q_)->ToTuples();
  const uint64_t version = *db_.OpenSession().relation_version("R");
  FaultInjector::Global().FailAt("trie.compact", 1);
  RelationDelta delta;
  delta.inserts = {{db_.mutable_dictionary()->Intern("777"),
                    db_.mutable_dictionary()->Intern("777")}};
  const CacheStats warm = db_.cache_stats();
  Status status = db_.ApplyRelationDelta("R", delta);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kInternal) << status.ToString();
  // The failed update never published, so it dropped nothing: same
  // version, same cached plans and tries, and the next query hits.
  const CacheStats faulted = db_.cache_stats();
  EXPECT_EQ(faulted.plan_invalidations, warm.plan_invalidations);
  EXPECT_EQ(faulted.plan_entries, warm.plan_entries);
  EXPECT_EQ(faulted.trie_entries, warm.trie_entries);
  FaultInjector::Global().Disarm();
  EXPECT_EQ(*db_.OpenSession().relation_version("R"), version);
  EXPECT_EQ(db_.OpenSession().Query(q_)->ToTuples(), before);
  EXPECT_EQ(db_.cache_stats().plan_hits, faulted.plan_hits + 1);
  // And the stream recovers once the fault clears.
  ASSERT_TRUE(db_.ApplyRelationDelta("R", delta).ok());
  EXPECT_EQ(*db_.OpenSession().relation_version("R"), version + 1);
}

TEST_F(ServingTest, FaultForcedQueueFullRejectsThenRecovers) {
  ScopedFaultInjection scoped;
  ASSERT_TRUE(db_.CreateTenantPool("acme").ok());
  FaultInjector::Global().FailAt("admission.queue_full", 1);
  QueryOptions options;
  options.tenant = "acme";
  auto rejected = db_.OpenSession().Query(q_, options);
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), StatusCode::kResourceExhausted);
  EXPECT_NE(rejected.status().ToString().find("saturated"),
            std::string::npos);
  FaultInjector::Global().Disarm();
  EXPECT_TRUE(db_.OpenSession().Query(q_, options).ok());
  EXPECT_EQ((*db_.tenant_pool_stats("acme")).rejected, 1);
}

TEST_F(ServingTest, FaultMorselHandoffFailsQueryWithTypedInternal) {
  // A dropped morsel hand-off must never surface as a silently partial
  // result: the barrier notices the missing shard and the whole query
  // fails kInternal.
  ScopedFaultInjection scoped;
  const auto expected = db_.OpenSession().Query(q_)->ToTuples();
  QueryOptions options;
  options.xjoin.num_threads = 4;  // the site needs more than one worker
  FaultInjector::Global().FailAt("gj.morsel", 1);
  auto result = db_.OpenSession().Query(q_, options);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInternal)
      << result.status().ToString();
  EXPECT_GE(FaultInjector::Global().hits("gj.morsel"), 1);
  FaultInjector::Global().Disarm();
  auto calm = db_.OpenSession().Query(q_, options);
  ASSERT_TRUE(calm.ok());
  EXPECT_EQ(calm->ToTuples(), expected);
}

TEST_F(ServingTest, FaultResultMergeFailureIsTypedAndRecoverable) {
  ScopedFaultInjection scoped;
  const auto expected = db_.OpenSession().Query(q_)->ToTuples();
  QueryOptions options;
  options.xjoin.num_threads = 4;
  FaultInjector::Global().FailAt("gj.result_merge", 1);
  auto result = db_.OpenSession().Query(q_, options);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInternal)
      << result.status().ToString();
  EXPECT_GE(FaultInjector::Global().hits("gj.result_merge"), 1);
  FaultInjector::Global().Disarm();
  auto calm = db_.OpenSession().Query(q_, options);
  ASSERT_TRUE(calm.ok());
  EXPECT_EQ(calm->ToTuples(), expected);
}

TEST_F(ServingTest, FaultTickHandlerCancelsDeterministicallyMidQuery) {
  // The gj.tick observer fires at the engine's budget-poll cadence;
  // cancelling there proves a mid-expansion Cancel() aborts within one
  // budget-check interval instead of running the ~3M-row join dry.
  ScopedFaultInjection scoped;
  ASSERT_TRUE(
      db_.RegisterRelationCsv("RB", MakeCsv("A", "B", 3000, 3, 0)).ok());
  ASSERT_TRUE(
      db_.RegisterRelationCsv("SB", MakeCsv("C", "B", 3000, 3, 0)).ok());
  CancellationToken token;
  FaultInjector::Global().SetHandler(
      "gj.tick", [&token](int64_t) { token.Cancel("tick handler"); });
  QueryOptions options;
  options.cancel = &token;
  auto result = db_.OpenSession().Query("QB(*) := RB, SB", options);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kCancelled)
      << result.status().ToString();
  EXPECT_GE(FaultInjector::Global().hits("gj.tick"), 1);
}

TEST_F(ServingTest, FaultSeededChaosAlwaysReturnsTypedStatuses) {
  // Seeded chaos sweep (CI varies XJOIN_FAULT_SEED): with every site
  // failing at p=0.05, each query must still end in either the exact
  // correct result or a clean typed error — never a crash, a partial
  // result, or a poisoned cache.
  ScopedFaultInjection scoped;
  const auto expected = db_.OpenSession().Query(q_)->ToTuples();
  // Hardened parse: a garbled XJOIN_FAULT_SEED warns and falls back
  // deterministically instead of silently wrapping.
  const uint64_t seed = EnvUint64OrDefault("XJOIN_FAULT_SEED", 42);
  FaultInjector::Global().SetSeed(seed, 0.05);
  for (int i = 0; i < 50; ++i) {
    if (i % 7 == 0) db_.ClearTrieCache();  // force rebuilds through faults
    auto result = db_.OpenSession().Query(q_);
    if (result.ok()) {
      EXPECT_EQ(result->ToTuples(), expected) << "iteration " << i;
    } else {
      StatusCode code = result.status().code();
      EXPECT_TRUE(code == StatusCode::kInternal ||
                  code == StatusCode::kResourceExhausted ||
                  code == StatusCode::kCancelled)
          << "iteration " << i << ": " << result.status().ToString();
    }
  }
  // After the storm: a clean run still answers correctly.
  FaultInjector::Global().Disarm();
  auto calm = db_.OpenSession().Query(q_);
  ASSERT_TRUE(calm.ok());
  EXPECT_EQ(calm->ToTuples(), expected);
}
#endif  // XJOIN_FAULTS_ENABLED

}  // namespace
}  // namespace xjoin
