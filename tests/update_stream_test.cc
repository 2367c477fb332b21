// Differential update-stream suite: the delta path must be
// observationally identical to rebuilding from scratch after every
// update. The SAME interleaved insert/delete/query stream is driven
// through (a) MultiModelDatabase::ApplyRelationDelta (the path that
// keeps cached tries alive across version bumps) and (b) a
// twin database that does a full UpdateRelation rebuild from a
// std::set<Tuple> oracle. After every batch the delta database's
// stored relation must equal the oracle as a set, and every query in
// the stream must return byte-identical rows on both databases, at
// threads {1, 4}. The queries mix updated relation tries with each
// other (a three-relation cycle) and with a lazy path trie over a
// document whose values share R's domain.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include "common/random.h"
#include "core/database.h"
#include "relational/relation.h"

namespace xjoin {
namespace {

// ---------------------------------------------------------------------
// Shared generator: a random tuple over small per-column domains, so
// streams produce genuine collisions (re-inserts, deletes of absent
// rows, resurrections) instead of disjoint noise.
Tuple RandomTuple(Rng* rng, int arity, int64_t domain) {
  Tuple t(static_cast<size_t>(arity));
  for (auto& v : t) v = rng->NextInRange(0, domain - 1);
  return t;
}

std::vector<Tuple> RandomTuples(Rng* rng, size_t count, int arity,
                                int64_t domain) {
  std::vector<Tuple> out;
  out.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    out.push_back(RandomTuple(rng, arity, domain));
  }
  return out;
}

// ---------------------------------------------------------------------
// One stream, two databases: `delta_db` takes ApplyRelationDelta,
// `rebuild_db` swaps in a full UpdateRelation built from the oracle.
// Queries interleave with updates; rows must match byte-for-byte under
// every execution config. The parameter is the stream's seed.

class DbUpdateStreamTest : public ::testing::TestWithParam<uint64_t> {
 protected:
  static constexpr int64_t kDomain = 8;

  void SeedDatabases(Rng* rng) {
    auto r_schema = Schema::Make({"A", "B"});
    auto s_schema = Schema::Make({"B", "C"});
    ASSERT_TRUE(r_schema.ok() && s_schema.ok());
    r_schema_ = *r_schema;
    s_schema_ = *s_schema;
    for (const Tuple& t : RandomTuples(rng, 30, 2, kDomain)) {
      r_oracle_.insert(t);
    }
    for (const Tuple& t : RandomTuples(rng, 30, 2, kDomain)) {
      s_oracle_.insert(t);
    }
    for (const Tuple& t : RandomTuples(rng, 30, 2, kDomain)) {
      t_oracle_.insert(t);
    }
    const std::string xml = RandomDocumentXml(rng);
    for (MultiModelDatabase* db : {&delta_db_, &rebuild_db_}) {
      ASSERT_TRUE(
          db->RegisterRelation("R", OracleRelation(r_schema_, r_oracle_)).ok());
      ASSERT_TRUE(
          db->RegisterRelation("S", OracleRelation(s_schema_, s_oracle_)).ok());
      ASSERT_TRUE(
          db->RegisterRelation("T", OracleRelation(t_schema_, t_oracle_)).ok());
      // Intern "v0".."v{kDomain-1}" first so document text "v<i>"
      // encodes to code i — the same values R's tuples hold.
      for (int64_t v = 0; v < kDomain; ++v) {
        ASSERT_EQ(db->mutable_dictionary()->Intern("v" + std::to_string(v)),
                  v);
      }
      ASSERT_TRUE(db->RegisterDocumentXml("doc", xml).ok());
    }
  }

  // A document of <A> elements, each with <B> children, whose text
  // values are drawn from "v0".."v{kDomain-1}": its A/B path relation
  // joins R(A, B) on both attributes.
  static std::string RandomDocumentXml(Rng* rng) {
    auto value = [&] {
      return "v" + std::to_string(rng->NextBounded(kDomain));
    };
    std::string xml = "<r>";
    for (int a = 0; a < 12; ++a) {
      xml += "<A>" + value();
      for (size_t b = 0; b < 1 + rng->NextBounded(3); ++b) {
        xml += "<B>" + value() + "</B>";
      }
      xml += "</A>";
    }
    return xml + "</r>";
  }

  static Relation OracleRelation(const Schema& schema,
                                 const std::set<Tuple>& oracle) {
    auto rel = Relation::FromTuples(
        schema, std::vector<Tuple>(oracle.begin(), oracle.end()));
    return *std::move(rel);
  }

  // Applies one random update batch to `name` on both databases and the
  // oracle, and checks the delta database stores exactly the oracle.
  void ApplyRound(Rng* rng, const std::string& name, const Schema& schema,
                  std::set<Tuple>* oracle) {
    RelationDelta delta;
    delta.inserts = RandomTuples(rng, 1 + rng->NextBounded(6), 2, kDomain);
    for (size_t i = 0; i < rng->NextBounded(6); ++i) {
      if (!oracle->empty() && rng->NextBernoulli(0.5)) {
        auto it = oracle->begin();
        std::advance(it, static_cast<long>(rng->NextBounded(oracle->size())));
        delta.deletes.push_back(*it);
      } else {
        delta.deletes.push_back(RandomTuple(rng, 2, kDomain));
      }
    }
    ASSERT_TRUE(delta_db_.ApplyRelationDelta(name, delta).ok());
    for (const Tuple& t : delta.deletes) oracle->erase(t);
    for (const Tuple& t : delta.inserts) oracle->insert(t);
    Session session = delta_db_.OpenSession();
    auto stored = session.relation(name);
    ASSERT_TRUE(stored.ok()) << stored.status().ToString();
    const std::vector<Tuple> rows = (*stored)->ToTuples();
    ASSERT_EQ(std::set<Tuple>(rows.begin(), rows.end()), *oracle) << name;
    ASSERT_EQ(rows.size(), oracle->size()) << name << ": duplicate rows";
    ASSERT_TRUE(
        rebuild_db_.UpdateRelation(name, OracleRelation(schema, *oracle)).ok());
  }

  // Runs `text` on both databases under one execution config and
  // demands byte-identical rows (same contents, same order).
  void ExpectIdentical(const std::string& text, int num_threads,
                       const char* context) {
    QueryOptions options;
    options.xjoin.num_threads = num_threads;
    // Pin the expansion order so both sides run the same plan shape —
    // the differential claim is about *maintenance*, not the order
    // heuristic's response to estimate drift.
    options.xjoin.attribute_order = {"A", "B", "C"};
    auto a = delta_db_.OpenSession().Query(text, options);
    auto b = rebuild_db_.OpenSession().Query(text, options);
    ASSERT_TRUE(a.ok()) << context << ": " << a.status().ToString();
    ASSERT_TRUE(b.ok()) << context << ": " << b.status().ToString();
    ASSERT_EQ(a->ToTuples(), b->ToTuples())
        << context << " threads=" << num_threads;
  }

  MultiModelDatabase delta_db_;
  MultiModelDatabase rebuild_db_;
  Schema r_schema_{*Schema::Make({"A", "B"})};
  Schema s_schema_{*Schema::Make({"B", "C"})};
  Schema t_schema_{*Schema::Make({"A", "C"})};
  std::set<Tuple> r_oracle_;
  std::set<Tuple> s_oracle_;
  std::set<Tuple> t_oracle_;
};

TEST_P(DbUpdateStreamTest, InterleavedStreamIsByteIdentical) {
  Rng rng(GetParam());
  SeedDatabases(&rng);

  // An updated trie alone at level A and beside S at level B; an
  // updated trie and a lazy path trie intersecting at levels A and B;
  // and a three-relation cycle, where updated tries intersect at every
  // level.
  const std::vector<std::string> joins = {
      "Q(A, B, C) := R, S", "Q(A, B, C) := R, S, doc : A/B",
      "Q(A, B, C) := R, S, T"};
  const int kConfigs = 2;  // thread counts below
  const int kRounds = 12;
  auto run_all = [&](const std::string& label) {
    for (const std::string& join : joins) {
      std::string context = label + " " + join;
      for (int threads : {1, 4}) {
        ExpectIdentical(join, threads, context.c_str());
      }
    }
  };
  // Warm-up: every plan and relation trie the stream uses is cached
  // before the first delta.
  run_all("warm-up");
  const CacheStats warm = delta_db_.cache_stats();
  int64_t expected_plan_misses = 0;
  for (int round = 0; round < kRounds; ++round) {
    // How many of `joins` read the relation this round changes: the
    // delta drops those plans under every execution config.
    int readers = 0;
    switch (rng.NextBounded(3)) {
      case 0:
        ApplyRound(&rng, "R", r_schema_, &r_oracle_);
        readers = 3;
        break;
      case 1:
        ApplyRound(&rng, "S", s_schema_, &s_oracle_);
        readers = 3;
        break;
      default:
        ApplyRound(&rng, "T", t_schema_, &t_oracle_);
        readers = 1;
        break;
    }
    expected_plan_misses += kConfigs * readers;
    run_all("round " + std::to_string(round));
  }

  // The delta path must actually have taken the incremental route over
  // the whole stream: after warm-up it built no trie, every delta
  // patched at least one cached trie, and the only plan misses are the
  // first query after a delta of each plan that reads the relation it
  // changed (the delta drops those plans; re-preparing pins the patched
  // tries).
  const CacheStats stats = delta_db_.cache_stats();
  EXPECT_EQ(stats.trie_misses - warm.trie_misses, 0);
  EXPECT_EQ(stats.plan_misses - warm.plan_misses, expected_plan_misses);
  EXPECT_GE(stats.trie_patches - warm.trie_patches, kRounds);
  EXPECT_GT(stats.trie_compactions, 0);

  // The twig join must have had rows to compare.
  auto twig_rows = delta_db_.OpenSession().Query(joins[1]);
  ASSERT_TRUE(twig_rows.ok()) << twig_rows.status().ToString();
  EXPECT_GT(twig_rows->num_rows(), 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, DbUpdateStreamTest, ::testing::Range<uint64_t>(11, 15),
    [](const ::testing::TestParamInfo<uint64_t>& info) {
      return "Seed" + std::to_string(info.param);
    });

// The delta path must keep sessions consistent: a session opened
// before an update keeps reading the old contents, one opened after
// reads the new — same visibility rules as the rebuild path.
TEST_F(DbUpdateStreamTest, SnapshotIsolationAcrossDeltas) {
  Rng rng(77);
  SeedDatabases(&rng);
  Session before = delta_db_.OpenSession();
  auto old_rows = before.Query("Q(A, B) := R");
  ASSERT_TRUE(old_rows.ok());

  RelationDelta delta;
  delta.inserts = {{kDomain + 5, kDomain + 5}};
  ASSERT_TRUE(delta_db_.ApplyRelationDelta("R", delta).ok());

  auto replay = before.Query("Q(A, B) := R");
  ASSERT_TRUE(replay.ok());
  EXPECT_EQ(old_rows->ToTuples(), replay->ToTuples());

  Session after = delta_db_.OpenSession();
  auto new_rows = after.Query("Q(A, B) := R");
  ASSERT_TRUE(new_rows.ok());
  EXPECT_EQ(new_rows->num_rows(), old_rows->num_rows() + 1);
  EXPECT_TRUE(new_rows->ContainsRow({kDomain + 5, kDomain + 5}));
}

// Error surface: unknown relation, arity mismatch, empty delta.
TEST_F(DbUpdateStreamTest, DeltaValidation) {
  Rng rng(78);
  SeedDatabases(&rng);
  RelationDelta empty;
  EXPECT_TRUE(delta_db_.ApplyRelationDelta("R", empty).ok());
  RelationDelta bad;
  bad.inserts = {{1, 2, 3}};
  EXPECT_FALSE(delta_db_.ApplyRelationDelta("R", bad).ok());
  RelationDelta fine;
  fine.inserts = {{1, 2}};
  EXPECT_FALSE(delta_db_.ApplyRelationDelta("missing", fine).ok());
}

// RelationDelta's contract, on a relation small enough to spell out:
// deletes apply before inserts (a tuple in both lists ends present),
// deleting an absent tuple and inserting a present one are no-ops, and
// replaying a batch changes nothing. Stored rows keep the base order,
// then the new inserts in batch order. A zero-arity relation takes no
// delta.
TEST(RelationDeltaTest, SetSemanticsAndReplay) {
  MultiModelDatabase db;
  auto schema = Schema::Make({"A", "B"});
  ASSERT_TRUE(schema.ok());
  auto base = Relation::FromTuples(*schema, {{1, 1}, {2, 2}, {3, 3}});
  ASSERT_TRUE(base.ok());
  ASSERT_TRUE(db.RegisterRelation("R", *std::move(base)).ok());
  auto stored = [&db] {
    Session session = db.OpenSession();
    return (*session.relation("R"))->ToTuples();
  };

  RelationDelta delta;
  delta.deletes = {{1, 1}, {5, 5}, {9, 9}};
  delta.inserts = {{2, 2}, {4, 4}, {5, 5}, {4, 4}};
  const std::vector<Tuple> expected = {{2, 2}, {3, 3}, {4, 4}, {5, 5}};
  ASSERT_TRUE(db.ApplyRelationDelta("R", delta).ok());
  EXPECT_EQ(stored(), expected);
  ASSERT_TRUE(db.ApplyRelationDelta("R", delta).ok());
  EXPECT_EQ(stored(), expected);
  EXPECT_EQ(*db.OpenSession().relation_version("R"), 2u);

  auto empty_schema = Schema::Make({});
  ASSERT_TRUE(empty_schema.ok());
  ASSERT_TRUE(db.RegisterRelation("Z", Relation(*empty_schema)).ok());
  RelationDelta zero_arity;
  zero_arity.inserts = {Tuple{}};
  const Status status = db.ApplyRelationDelta("Z", zero_arity);
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << status.ToString();
}

}  // namespace
}  // namespace xjoin
