#include <gtest/gtest.h>

#include "common/random.h"
#include "relational/operators.h"
#include "tests/test_util.h"

namespace xjoin {
namespace {

Relation MakeRel(const std::vector<std::string>& attrs,
                 std::vector<Tuple> tuples) {
  auto s = Schema::Make(attrs);
  auto r = Relation::FromTuples(*s, std::move(tuples));
  return *std::move(r);
}

TEST(ProjectTest, DropsColumnsAndDedups) {
  Relation r = MakeRel({"A", "B"}, {{1, 10}, {1, 20}, {2, 10}});
  auto p = Project(r, {"A"});
  ASSERT_TRUE(p.ok());
  EXPECT_EQ(p->num_rows(), 2u);
  EXPECT_TRUE(p->ContainsRow({1}));
  EXPECT_TRUE(p->ContainsRow({2}));
}

TEST(ProjectTest, Reorders) {
  Relation r = MakeRel({"A", "B"}, {{1, 10}});
  auto p = Project(r, {"B", "A"});
  ASSERT_TRUE(p.ok());
  EXPECT_EQ(p->GetRow(0), (Tuple{10, 1}));
}

TEST(ProjectTest, UnknownAttributeFails) {
  Relation r = MakeRel({"A"}, {{1}});
  EXPECT_FALSE(Project(r, {"Z"}).ok());
}

TEST(HashJoinTest, NaturalJoinOnSharedAttribute) {
  Relation r = MakeRel({"A", "B"}, {{1, 10}, {2, 20}});
  Relation s = MakeRel({"B", "C"}, {{10, 100}, {10, 101}, {30, 300}});
  auto j = HashJoin(r, s);
  ASSERT_TRUE(j.ok());
  EXPECT_EQ(j->schema().attributes(),
            (std::vector<std::string>{"A", "B", "C"}));
  EXPECT_EQ(j->num_rows(), 2u);
  EXPECT_TRUE(j->ContainsRow({1, 10, 100}));
  EXPECT_TRUE(j->ContainsRow({1, 10, 101}));
}

TEST(HashJoinTest, NoSharedAttributesIsCrossProduct) {
  Relation r = MakeRel({"A"}, {{1}, {2}});
  Relation s = MakeRel({"B"}, {{10}, {20}, {30}});
  auto j = HashJoin(r, s);
  ASSERT_TRUE(j.ok());
  EXPECT_EQ(j->num_rows(), 6u);
}

TEST(HashJoinTest, MultiAttributeKey) {
  Relation r = MakeRel({"A", "B"}, {{1, 2}, {1, 3}});
  Relation s = MakeRel({"A", "B", "C"}, {{1, 2, 7}, {1, 9, 8}});
  auto j = HashJoin(r, s);
  ASSERT_TRUE(j.ok());
  EXPECT_EQ(j->num_rows(), 1u);
  EXPECT_TRUE(j->ContainsRow({1, 2, 7}));
}

TEST(HashJoinTest, MetricsRecorded) {
  Relation r = MakeRel({"A"}, {{1}});
  Relation s = MakeRel({"A"}, {{1}});
  Metrics m;
  auto j = HashJoin(r, s, &m);
  ASSERT_TRUE(j.ok());
  EXPECT_EQ(m.Get("hash_join.output"), 1);
  EXPECT_EQ(m.Get("hash_join.probe_matches"), 1);
}

TEST(JoinAllTest, TracksIntermediates) {
  Relation r = MakeRel({"A", "B"}, {{1, 1}, {1, 2}, {2, 1}});
  Relation s = MakeRel({"B", "C"}, {{1, 1}, {1, 2}});
  Relation t = MakeRel({"C", "A"}, {{1, 1}});
  Metrics m;
  auto j = JoinAll({&r, &s, &t}, &m);
  ASSERT_TRUE(j.ok());
  EXPECT_GT(m.Get("plan.max_intermediate"), 0);
  EXPECT_GE(m.Get("plan.total_intermediate"), m.Get("plan.max_intermediate"));
  // Triangle-ish check: result must satisfy all three relations.
  for (size_t i = 0; i < j->num_rows(); ++i) {
    Tuple row = j->GetRow(i);  // schema A,B,C
    EXPECT_TRUE(r.ContainsRow({row[0], row[1]}));
    EXPECT_TRUE(s.ContainsRow({row[1], row[2]}));
    EXPECT_TRUE(t.ContainsRow({row[2], row[0]}));
  }
}

TEST(JoinAllTest, EmptyInputFails) {
  EXPECT_FALSE(JoinAll({}).ok());
}

TEST(RelationsEqualAsSetsTest, OrderAndDuplicatesIgnored) {
  Relation a = MakeRel({"A"}, {{1}, {2}, {1}});
  Relation b = MakeRel({"A"}, {{2}, {1}});
  Relation c = MakeRel({"A"}, {{2}, {3}});
  EXPECT_TRUE(RelationsEqualAsSets(a, b));
  EXPECT_FALSE(RelationsEqualAsSets(a, c));
  Relation d = MakeRel({"B"}, {{1}, {2}});
  EXPECT_FALSE(RelationsEqualAsSets(a, d));  // schema differs
}

// Property: HashJoin of two random relations equals the brute-force
// natural join.
class HashJoinProperty : public ::testing::TestWithParam<int> {};

TEST_P(HashJoinProperty, MatchesNaiveJoin) {
  Rng rng(2000 + static_cast<uint64_t>(GetParam()));
  Dictionary dict;
  // Random overlapping schemas out of a pool of 4 attribute names.
  std::vector<std::string> pool = {"A", "B", "C", "D"};
  auto pick_schema = [&]() {
    std::vector<std::string> attrs;
    for (const auto& a : pool) {
      if (rng.NextBernoulli(0.6)) attrs.push_back(a);
    }
    if (attrs.empty()) attrs.push_back("A");
    return attrs;
  };
  Relation r = testing::RandomRelation(&rng, &dict, pick_schema(),
                                       rng.NextBounded(30), 4);
  Relation s = testing::RandomRelation(&rng, &dict, pick_schema(),
                                       rng.NextBounded(30), 4);
  auto fast = HashJoin(r, s);
  ASSERT_TRUE(fast.ok());
  Relation slow = testing::NaiveNaturalJoin({&r, &s});
  // Schemas may order attributes differently; project both to the fast
  // schema's order.
  auto slow_proj = Project(slow, fast->schema().attributes());
  ASSERT_TRUE(slow_proj.ok());
  Relation fast_copy = *fast;
  fast_copy.SortAndDedup();
  EXPECT_TRUE(RelationsEqualAsSets(fast_copy, *slow_proj));
}

INSTANTIATE_TEST_SUITE_P(RandomInstances, HashJoinProperty,
                         ::testing::Range(0, 30));

}  // namespace
}  // namespace xjoin
