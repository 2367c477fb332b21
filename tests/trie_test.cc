#include <gtest/gtest.h>

#include <algorithm>

#include "common/random.h"
#include "relational/operators.h"
#include "relational/trie.h"
#include "tests/test_util.h"

namespace xjoin {
namespace {

Relation SmallRelation() {
  auto s = Schema::Make({"A", "B"});
  Relation r(*s);
  r.AppendRow({1, 10});
  r.AppendRow({1, 20});
  r.AppendRow({2, 10});
  r.AppendRow({2, 10});  // duplicate
  r.AppendRow({5, 7});
  return r;
}

using testing::EnumerateTrie;
using testing::SpanKeys;

TEST(RelationTrieTest, BuildSortsAndDedups) {
  auto trie = RelationTrie::Build(SmallRelation(), {"A", "B"});
  ASSERT_TRUE(trie.ok());
  EXPECT_EQ(trie->num_rows(), 4u);
  // CSR layout: level 0 holds the distinct A keys, level 1 the distinct
  // B keys per A parent, child_begin the offsets between them.
  EXPECT_EQ(trie->level_keys(0), (std::vector<int64_t>{1, 2, 5}));
  EXPECT_EQ(trie->level_keys(1), (std::vector<int64_t>{10, 20, 10, 7}));
  EXPECT_EQ(trie->child_begin(0), (std::vector<uint32_t>{0, 2, 3, 4}));
}

TEST(RelationTrieTest, BuildWithPermutedOrder) {
  auto trie = RelationTrie::Build(SmallRelation(), {"B", "A"});
  ASSERT_TRUE(trie.ok());
  EXPECT_EQ(trie->attribute_order(),
            (std::vector<std::string>{"B", "A"}));
  EXPECT_EQ(trie->level_keys(0), (std::vector<int64_t>{7, 10, 20}));
  EXPECT_EQ(trie->level_keys(1), (std::vector<int64_t>{5, 1, 2, 1}));
  EXPECT_EQ(trie->child_begin(0), (std::vector<uint32_t>{0, 1, 3, 4}));
}

TEST(RelationTrieTest, BuildRejectsBadOrders) {
  EXPECT_FALSE(RelationTrie::Build(SmallRelation(), {"A"}).ok());
  EXPECT_FALSE(RelationTrie::Build(SmallRelation(), {"A", "Z"}).ok());
  EXPECT_FALSE(RelationTrie::Build(SmallRelation(), {"A", "A"}).ok());
}

TEST(RelationTrieIteratorTest, RootSpanHoldsDistinctKeys) {
  auto trie = RelationTrie::Build(SmallRelation(), {"A", "B"});
  auto it = trie->NewIterator();
  KeySpan root = it->Open(0);
  EXPECT_EQ(SpanKeys(root), (std::vector<int64_t>{1, 2, 5}));
  it->Up();
  // Re-opening after Up() yields the same level.
  EXPECT_EQ(SpanKeys(it->Open(0)), (std::vector<int64_t>{1, 2, 5}));
}

TEST(RelationTrieIteratorTest, OpenDescendsIntoGroup) {
  auto trie = RelationTrie::Build(SmallRelation(), {"A", "B"});
  auto it = trie->NewIterator();
  KeySpan root = it->Open(0);                // A level
  KeySpan under1 = it->Open(root.lo);        // B level under A=1
  EXPECT_EQ(SpanKeys(under1), (std::vector<int64_t>{10, 20}));
  it->Up();
  KeySpan under2 = it->Open(root.lo + 1);    // B level under A=2
  EXPECT_EQ(SpanKeys(under2), (std::vector<int64_t>{10}));
  it->Up();
  // The root span stays valid while its children are opened and closed.
  EXPECT_EQ(SpanKeys(root), (std::vector<int64_t>{1, 2, 5}));
}

TEST(RelationTrieIteratorTest, EmptyRelation) {
  auto s = Schema::Make({"A", "B"});
  Relation r(*s);
  auto trie = RelationTrie::Build(r, {"A", "B"});
  auto it = trie->NewIterator();
  EXPECT_EQ(it->Open(0).size(), 0u);
}

// The bytes a trie's data needs: 8 per level key, 4 per child offset.
size_t DataBytes(const RelationTrie& trie) {
  const size_t k = static_cast<size_t>(trie.arity());
  size_t bytes = 0;
  for (size_t d = 0; d < k; ++d) bytes += trie.level_keys(d).size() * 8;
  for (size_t d = 0; d + 1 < k; ++d) bytes += trie.child_begin(d).size() * 4;
  return bytes;
}

// `rows` rows of arity `arity` over a small domain (so prefixes repeat),
// with every fifth row appended twice.
Relation DuplicatingRelation(Rng* rng, size_t arity, size_t rows) {
  std::vector<std::string> attrs;
  for (size_t c = 0; c < arity; ++c) attrs.push_back("a" + std::to_string(c));
  Relation rel(*Schema::Make(attrs));
  Tuple row(arity);
  for (size_t r = 0; r < rows; ++r) {
    for (size_t c = 0; c < arity; ++c) {
      row[c] = static_cast<int64_t>(rng->NextBounded(40));
    }
    rel.AppendRow(row);
    if (r % 5 == 0) rel.AppendRow(row);
  }
  return rel;
}

// ByteSizeEstimate is what the byte-budget trie cache charges; it must
// be the data's bytes exactly, with no growth slack in any array, on
// both sort paths, every arity, and serial or parallel assembly.
TEST(RelationTrieTest, ByteSizeEstimateHasNoSlack) {
  Rng rng(17);
  for (size_t arity = 1; arity <= 3; ++arity) {
    // 50 rows take the std::sort path, 300 the radix path.
    for (size_t rows : {50, 300}) {
      Relation rel = DuplicatingRelation(&rng, arity, rows);
      for (int threads : {1, 4}) {
        SCOPED_TRACE("arity " + std::to_string(arity) + ", rows " +
                     std::to_string(rows) + ", threads " +
                     std::to_string(threads));
        Metrics metrics;
        TrieBuildOptions options;
        options.num_threads = threads;
        options.metrics = &metrics;
        auto trie =
            RelationTrie::Build(rel, rel.schema().attributes(), options);
        ASSERT_TRUE(trie.ok());
        EXPECT_EQ(metrics.Get(rows >= 256 ? "trie.radix_sorts"
                                          : "trie.std_sorts"),
                  1);
        EXPECT_LT(trie->num_rows(), rel.num_rows());  // duplicates folded
        EXPECT_EQ(trie->ByteSizeEstimate(), DataBytes(*trie));
      }
    }
  }
}

// Property: enumerating the trie yields exactly the sorted distinct
// tuples of the relation, for random relations and random orders.
class TrieEnumerationProperty : public ::testing::TestWithParam<int> {};

TEST_P(TrieEnumerationProperty, MatchesSortedDistinctTuples) {
  Rng rng(static_cast<uint64_t>(GetParam()));
  Dictionary dict;
  size_t arity = 1 + rng.NextBounded(4);
  std::vector<std::string> attrs;
  for (size_t i = 0; i < arity; ++i) attrs.push_back("a" + std::to_string(i));
  Relation rel = testing::RandomRelation(&rng, &dict, attrs,
                                         rng.NextBounded(60), 5);
  std::vector<std::string> order = attrs;
  rng.Shuffle(&order);

  auto trie = RelationTrie::Build(rel, order);
  ASSERT_TRUE(trie.ok());
  auto it = trie->NewIterator();
  std::vector<Tuple> enumerated = EnumerateTrie(it.get());

  // Reference: project relation onto `order` then sort+dedup.
  auto expected = Project(rel, order);
  ASSERT_TRUE(expected.ok());
  ASSERT_EQ(enumerated.size(), expected->num_rows());
  for (size_t r = 0; r < enumerated.size(); ++r) {
    EXPECT_EQ(enumerated[r], expected->GetRow(r));
  }
}

INSTANTIATE_TEST_SUITE_P(RandomInstances, TrieEnumerationProperty,
                         ::testing::Range(0, 25));

}  // namespace
}  // namespace xjoin
