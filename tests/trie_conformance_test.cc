// Parameterized TrieIterator conformance suite, run against every
// implementation — RelationTrie (CSR level arrays), LazyPathTrie
// (in-place document navigation), and the materialized path trie
// (RelationTrie over a flattened PathRelation) — plus a randomized
// equivalence check of the CSR trie against a reference sorted-vector
// oracle. Every implementation must satisfy the span contract in
// relational/trie_iterator.h: each opened span holds exactly the
// oracle's distinct keys for its prefix, in ascending order; spans stay
// valid while deeper levels open and close; clones start at the root
// and are independent.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/random.h"
#include "core/decompose.h"
#include "core/virtual_relation.h"
#include "relational/operators.h"
#include "relational/trie.h"
#include "tests/test_util.h"
#include "xml/parser.h"

namespace xjoin {
namespace {

using testing::EnumerateTrie;
using testing::SpanKeys;

// ---------------------------------------------------------------------
// Reference oracle: the distinct level-d keys under a bound prefix of
// an explicit sorted-distinct tuple vector, by plain linear scan —
// deliberately the dumbest possible realization of the contract.
std::vector<int64_t> OracleKeys(const std::vector<Tuple>& tuples,
                                const Tuple& prefix) {
  const size_t d = prefix.size();
  std::vector<int64_t> keys;
  for (const Tuple& t : tuples) {
    if (!std::equal(prefix.begin(), prefix.end(), t.begin())) continue;
    if (keys.empty() || keys.back() != t[d]) keys.push_back(t[d]);
  }
  return keys;
}

// ---------------------------------------------------------------------
// Fixtures: one per implementation, each owning its backing data and
// exposing (a) fresh iterators and (b) the sorted-distinct oracle
// tuples describing the same logical trie.
struct TrieFixture {
  virtual ~TrieFixture() = default;
  virtual std::unique_ptr<TrieIterator> NewIterator() const = 0;
  virtual int arity() const = 0;
  const std::vector<Tuple>& oracle() const { return *oracle_; }
 protected:
  void SetOracle(std::vector<Tuple> tuples) {
    std::sort(tuples.begin(), tuples.end());
    tuples.erase(std::unique(tuples.begin(), tuples.end()), tuples.end());
    oracle_ = std::make_shared<const std::vector<Tuple>>(std::move(tuples));
  }

 private:
  std::shared_ptr<const std::vector<Tuple>> oracle_;
};

struct RelationTrieFixture : TrieFixture {
  RelationTrieFixture(const Relation& rel,
                      const std::vector<std::string>& order) {
    auto projected = Project(rel, order);
    SetOracle(projected->ToTuples());
    auto built = RelationTrie::Build(rel, order);
    trie = std::make_unique<RelationTrie>(*std::move(built));
  }

  std::unique_ptr<TrieIterator> NewIterator() const override {
    return trie->NewIterator();
  }
  int arity() const override { return trie->arity(); }

  std::unique_ptr<RelationTrie> trie;
};

// Shared XML backing for the two path-trie fixtures.
struct PathBacking {
  PathBacking(const std::string& xml, const std::string& pattern) {
    auto parsed = ParseXml(xml);
    doc = std::make_unique<XmlDocument>(*std::move(parsed));
    index = std::make_unique<NodeIndex>(NodeIndex::Build(doc.get(), &dict));
    auto parsed_twig = Twig::Parse(pattern);
    twig = std::make_unique<Twig>(*std::move(parsed_twig));
    auto decomposition = DecomposeTwig(*twig);
    auto rel = PathRelation::Make(*twig, decomposition->paths[0], index.get());
    relation = std::make_unique<PathRelation>(*std::move(rel));
  }

  Dictionary dict;
  std::unique_ptr<XmlDocument> doc;
  std::unique_ptr<NodeIndex> index;
  std::unique_ptr<Twig> twig;
  std::unique_ptr<PathRelation> relation;
};

struct LazyPathTrieFixture : TrieFixture {
  LazyPathTrieFixture(const std::string& xml, const std::string& pattern)
      : backing(xml, pattern) {
    SetOracle(backing.relation->Materialize()->ToTuples());
  }

  std::unique_ptr<TrieIterator> NewIterator() const override {
    return backing.relation->NewLazyIterator();
  }
  int arity() const override { return backing.relation->arity(); }

  PathBacking backing;
};

struct MaterializedPathTrieFixture : TrieFixture {
  MaterializedPathTrieFixture(const std::string& xml,
                              const std::string& pattern)
      : backing(xml, pattern) {
    Relation mat = *backing.relation->Materialize();
    SetOracle(mat.ToTuples());
    auto built = RelationTrie::Build(mat, backing.relation->attributes());
    trie = std::make_unique<RelationTrie>(*std::move(built));
  }

  std::unique_ptr<TrieIterator> NewIterator() const override {
    return trie->NewIterator();
  }
  int arity() const override { return trie->arity(); }

  PathBacking backing;
  std::unique_ptr<RelationTrie> trie;
};

// ---------------------------------------------------------------------
// Fixture registry (the parameter domain).
Relation BasicRelation() {
  auto s = Schema::Make({"A", "B"});
  Relation r(*s);
  r.AppendRow({1, 10});
  r.AppendRow({1, 20});
  r.AppendRow({2, 10});
  r.AppendRow({2, 10});  // duplicate
  r.AppendRow({5, 7});
  r.AppendRow({5, 9});
  r.AppendRow({9, 1});
  return r;
}

Relation Arity3Relation() {
  auto s = Schema::Make({"A", "B", "C"});
  Relation r(*s);
  for (int i = 0; i < 5; ++i) {
    for (int j = 0; j < 4; ++j) r.AppendRow({i, j, (i * j) % 3});
  }
  return r;
}

// The lazy path trie exposes every chain prefix, so its conformance
// fixtures use documents where every partial chain extends to a full
// one (no dangling prefixes); the dangling-prefix behavior gets its own
// targeted tests below. The materialized fixtures flatten first, so
// they tolerate dangling chains.
constexpr char kCompleteXml[] =
    "<r><a>1<b>x</b><b>y</b><b>y</b></a><a>2<b>x</b></a>"
    "<a>1<b>z</b></a></r>";
constexpr char kCompleteDeepXml[] =
    "<r><a>1<b>x<c>p</c><c>q</c></b><b>y<c>p</c></b></a>"
    "<a>2<b>x<c>r</c></b></a></r>";
constexpr char kDanglingXml[] =
    "<r><a>1<b>x</b><b>y</b><b>y</b></a><a>2<b>x</b></a>"
    "<a>1<b>z</b></a><a>3</a></r>";
constexpr char kDanglingDeepXml[] =
    "<r><a>1<b>x<c>p</c><c>q</c></b><b>y<c>p</c></b></a>"
    "<a>2<b>x<c>r</c></b></a><a>3<b>w</b></a></r>";

struct FixtureSpec {
  const char* name;
  std::function<std::shared_ptr<TrieFixture>()> make;
};

const std::vector<FixtureSpec>& Registry() {
  static const std::vector<FixtureSpec>* specs = new std::vector<FixtureSpec>{
      {"RelationTrieBasic",
       [] {
         return std::make_shared<RelationTrieFixture>(
             BasicRelation(), std::vector<std::string>{"A", "B"});
       }},
      {"RelationTriePermutedOrder",
       [] {
         return std::make_shared<RelationTrieFixture>(
             BasicRelation(), std::vector<std::string>{"B", "A"});
       }},
      {"RelationTrieArity3",
       [] {
         return std::make_shared<RelationTrieFixture>(
             Arity3Relation(), std::vector<std::string>{"A", "B", "C"});
       }},
      {"RelationTrieEmpty",
       [] {
         auto s = Schema::Make({"A", "B"});
         return std::make_shared<RelationTrieFixture>(
             Relation(*s), std::vector<std::string>{"A", "B"});
       }},
      {"RelationTrieSingleRow",
       [] {
         auto s = Schema::Make({"A"});
         Relation r(*s);
         r.AppendRow({42});
         return std::make_shared<RelationTrieFixture>(
             r, std::vector<std::string>{"A"});
       }},
      {"LazyPathTrieBasic",
       [] {
         return std::make_shared<LazyPathTrieFixture>(kCompleteXml, "a/b");
       }},
      {"LazyPathTrieDepth3",
       [] {
         return std::make_shared<LazyPathTrieFixture>(kCompleteDeepXml,
                                                      "a/b/c");
       }},
      {"MaterializedPathTrieBasic",
       [] {
         return std::make_shared<MaterializedPathTrieFixture>(kDanglingXml,
                                                              "a/b");
       }},
      {"MaterializedPathTrieDepth3",
       [] {
         return std::make_shared<MaterializedPathTrieFixture>(kDanglingDeepXml,
                                                              "a/b/c");
       }},
      {"MaterializedPathTrieAbsentTag",
       [] {
         return std::make_shared<MaterializedPathTrieFixture>(kDanglingXml,
                                                              "a/zz");
       }},
  };
  return *specs;
}

// Walks the whole trie depth-first and checks every opened span
// against the oracle's distinct keys for its prefix. Returns the number
// of spans checked.
size_t CheckAllSpans(TrieIterator* it, const std::vector<Tuple>& oracle) {
  size_t checked = 0;
  const size_t arity = static_cast<size_t>(it->arity());
  Tuple prefix;
  auto walk = [&](auto&& self, size_t parent_pos) -> void {
    KeySpan span = it->Open(parent_pos);
    std::vector<int64_t> keys = SpanKeys(span);
    EXPECT_EQ(keys, OracleKeys(oracle, prefix))
        << "prefix length " << prefix.size();
    ++checked;
    // Strictly ascending == sorted and distinct.
    for (size_t i = 1; i < keys.size(); ++i) EXPECT_LT(keys[i - 1], keys[i]);
    if (prefix.size() + 1 < arity) {
      for (size_t p = span.lo; p < span.hi; ++p) {
        prefix.push_back(span.keys[p]);
        self(self, p);
        prefix.pop_back();
        // The parent span survives its children's open/close.
        EXPECT_EQ(SpanKeys(span), keys);
      }
    }
    it->Up();
  };
  walk(walk, 0);
  return checked;
}

class TrieConformanceTest : public ::testing::TestWithParam<size_t> {
 protected:
  std::shared_ptr<TrieFixture> fixture_ = Registry()[GetParam()].make();
};

TEST_P(TrieConformanceTest, EnumerationMatchesOracle) {
  auto it = fixture_->NewIterator();
  EXPECT_EQ(EnumerateTrie(it.get()), fixture_->oracle());
  // The walk must restore the root position; a second pass sees the
  // same trie.
  EXPECT_EQ(EnumerateTrie(it.get()), fixture_->oracle());
}

TEST_P(TrieConformanceTest, EverySpanEqualsOracleDistinctKeys) {
  auto it = fixture_->NewIterator();
  ASSERT_GT(it->arity(), 0);
  EXPECT_GE(CheckAllSpans(it.get(), fixture_->oracle()), 1u);
}

TEST_P(TrieConformanceTest, OpenUpBookkeeping) {
  auto it = fixture_->NewIterator();
  ASSERT_GT(it->arity(), 0);
  KeySpan span = it->Open(0);
  if (fixture_->oracle().empty()) {
    EXPECT_EQ(span.size(), 0u);
    it->Up();
    return;
  }
  // Descend along the first tuple, then climb back out.
  const Tuple& first = fixture_->oracle()[0];
  for (int d = 0;; ++d) {
    ASSERT_GT(span.size(), 0u);
    EXPECT_EQ(span.keys[span.lo], first[static_cast<size_t>(d)]);
    if (d + 1 == it->arity()) break;
    span = it->Open(span.lo);
  }
  for (int d = it->arity(); d > 0; --d) it->Up();
  EXPECT_EQ(EnumerateTrie(it.get()), fixture_->oracle());
}

TEST_P(TrieConformanceTest, CloneIsRootPositionedAndIndependent) {
  auto original = fixture_->NewIterator();
  std::vector<Tuple> reference = EnumerateTrie(original.get());
  auto fresh = original->Clone();
  ASSERT_NE(fresh, nullptr);
  EXPECT_EQ(fresh->arity(), original->arity());
  EXPECT_EQ(EnumerateTrie(fresh.get()), reference);

  if (reference.empty()) return;

  // A clone taken with a level open does not observe or perturb it.
  KeySpan root = original->Open(0);
  std::vector<int64_t> keys_before = SpanKeys(root);
  auto mid = original->Clone();
  EXPECT_EQ(EnumerateTrie(mid.get()), reference);
  EXPECT_EQ(SpanKeys(root), keys_before);
  original->Up();
  EXPECT_EQ(EnumerateTrie(original.get()), reference);
}

// Closing a level and re-opening it under the same parent yields the
// same keys again, at every level of the trie.
TEST_P(TrieConformanceTest, UpAndReopenYieldsSameSpan) {
  if (fixture_->oracle().empty()) return;
  auto it = fixture_->NewIterator();
  size_t parent_pos = 0;
  for (int d = 0; d < it->arity(); ++d) {
    KeySpan first = it->Open(parent_pos);
    std::vector<int64_t> expected = SpanKeys(first);
    it->Up();
    KeySpan again = it->Open(parent_pos);
    EXPECT_EQ(SpanKeys(again), expected) << "level " << d;
    ASSERT_GT(again.size(), 0u);
    parent_pos = again.lo;
  }
}

// Drives the implementation with a random-but-legal Open/Up sequence
// and checks every opened span against the oracle, plus every still-open
// ancestor span after each step.
void RandomSpanWalk(TrieIterator* it, const std::vector<Tuple>& oracle,
                    Rng* rng, int steps) {
  const size_t arity = static_cast<size_t>(it->arity());
  struct Level {
    KeySpan span;
    std::vector<int64_t> keys;
  };
  std::vector<Level> stack;
  Tuple prefix;
  for (int step = 0; step < steps; ++step) {
    const bool can_open =
        stack.size() < arity &&
        (stack.empty() || stack.back().span.size() > 0);
    if (can_open && (stack.empty() || rng->NextBernoulli(0.6))) {
      size_t parent_pos = 0;
      if (!stack.empty()) {
        const KeySpan& parent = stack.back().span;
        parent_pos = parent.lo + rng->NextBounded(parent.size());
        prefix.push_back(parent.keys[parent_pos]);
      }
      KeySpan span = it->Open(parent_pos);
      stack.push_back(Level{span, SpanKeys(span)});
      ASSERT_EQ(stack.back().keys, OracleKeys(oracle, prefix))
          << "step " << step;
    } else if (!stack.empty()) {
      it->Up();
      stack.pop_back();
      if (!prefix.empty() && prefix.size() == stack.size()) prefix.pop_back();
    }
    for (const Level& level : stack) {
      ASSERT_EQ(SpanKeys(level.span), level.keys) << "step " << step;
    }
  }
  while (!stack.empty()) {
    it->Up();
    stack.pop_back();
  }
}

TEST_P(TrieConformanceTest, RandomWalkMatchesOracle) {
  if (fixture_->oracle().empty()) return;
  for (uint64_t seed = 0; seed < 5; ++seed) {
    Rng rng(7000 + 31 * GetParam() + seed);
    auto it = fixture_->NewIterator();
    RandomSpanWalk(it.get(), fixture_->oracle(), &rng, 400);
    EXPECT_EQ(EnumerateTrie(it.get()), fixture_->oracle());
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllImplementations, TrieConformanceTest,
    ::testing::Range(size_t{0}, Registry().size()),
    [](const ::testing::TestParamInfo<size_t>& info) {
      return Registry()[info.param].name;
    });

// ---------------------------------------------------------------------
// The lazy path trie's documented relaxation: it enumerates every chain
// prefix, so a level may expose keys whose deeper subtree turns out to
// be empty (a node with no matching children). Full-tuple enumeration
// still agrees with the materialized relation — which is all the join
// engine relies on — and opening a dangling key yields an empty level,
// exactly what the leapfrog backtracks over.
TEST(LazyPathTrieRelaxationTest, DanglingPrefixesExposeEmptySubtrees) {
  LazyPathTrieFixture fixture(kDanglingXml, "a/b");
  // Enumeration matches the materialized relation despite <a>3</a>
  // contributing no chain.
  auto it = fixture.NewIterator();
  EXPECT_EQ(EnumerateTrie(it.get()), fixture.oracle());

  // Level 0 exposes a superset of the oracle's level-0 keys ...
  std::vector<int64_t> oracle_keys = OracleKeys(fixture.oracle(), {});
  KeySpan root = it->Open(0);
  std::vector<int64_t> lazy_keys = SpanKeys(root);
  EXPECT_GT(lazy_keys.size(), oracle_keys.size());
  for (int64_t k : oracle_keys) {
    EXPECT_TRUE(std::find(lazy_keys.begin(), lazy_keys.end(), k) !=
                lazy_keys.end());
  }

  // ... and opening a dangling key yields an empty next level.
  bool saw_dangling = false;
  for (size_t p = root.lo; p < root.hi; ++p) {
    if (it->Open(p).size() == 0) saw_dangling = true;
    it->Up();
  }
  EXPECT_TRUE(saw_dangling);
}

TEST(LazyPathTrieRelaxationTest, AbsentTagYieldsNoTuples) {
  LazyPathTrieFixture fixture(kDanglingXml, "a/zz");
  EXPECT_TRUE(fixture.oracle().empty());
  auto it = fixture.NewIterator();
  EXPECT_TRUE(EnumerateTrie(it.get()).empty());
}

// ---------------------------------------------------------------------
// Randomized CSR-vs-oracle equivalence on generated relations (random
// arity, random attribute order, duplicate-heavy domains).
class CsrTrieRandomizedTest : public ::testing::TestWithParam<int> {};

TEST_P(CsrTrieRandomizedTest, MatchesSortedVectorOracle) {
  Rng rng(9000 + static_cast<uint64_t>(GetParam()));
  Dictionary dict;
  size_t arity = 1 + rng.NextBounded(4);
  std::vector<std::string> attrs;
  for (size_t i = 0; i < arity; ++i) attrs.push_back("a" + std::to_string(i));
  Relation rel = xjoin::testing::RandomRelation(&rng, &dict, attrs,
                                                rng.NextBounded(300), 6);
  std::vector<std::string> order = attrs;
  rng.Shuffle(&order);

  RelationTrieFixture fixture(rel, order);
  auto it = fixture.NewIterator();
  EXPECT_EQ(EnumerateTrie(it.get()), fixture.oracle());

  // Random walk against the oracle.
  auto impl = fixture.NewIterator();
  RandomSpanWalk(impl.get(), fixture.oracle(), &rng, 300);
}

INSTANTIATE_TEST_SUITE_P(RandomInstances, CsrTrieRandomizedTest,
                         ::testing::Range(0, 20));

// The radix path (>= 256 rows) and the std::sort path must produce
// identical tries.
TEST(CsrTrieBuildTest, RadixAndComparatorSortsAgree) {
  Rng rng(123);
  Dictionary dict;
  // Values that exercise multiple radix bytes, plus negatives.
  auto s = Schema::Make({"A", "B"});
  Relation rel(*s);
  for (int i = 0; i < 1000; ++i) {
    int64_t a = static_cast<int64_t>(rng.NextBounded(1 << 20)) - (1 << 19);
    int64_t b = static_cast<int64_t>(rng.NextBounded(97));
    rel.AppendRow({a, b});
  }
  auto big = RelationTrie::Build(rel, {"A", "B"});
  ASSERT_TRUE(big.ok());

  // Reference: sort+dedup through the Relation and re-enumerate.
  Relation sorted_rel = rel;
  sorted_rel.SortAndDedup();
  RelationTrieFixture fixture(sorted_rel, {"A", "B"});
  auto it = big->NewIterator();
  EXPECT_EQ(EnumerateTrie(it.get()), fixture.oracle());
}

// Parallel builds must be byte-identical to serial builds.
TEST(CsrTrieBuildTest, ParallelBuildMatchesSerial) {
  Rng rng(321);
  Dictionary dict;
  Relation rel = xjoin::testing::RandomRelation(
      &rng, &dict, {"a0", "a1", "a2"}, 2000, 40);
  auto serial = RelationTrie::Build(rel, {"a2", "a0", "a1"});
  ASSERT_TRUE(serial.ok());
  TrieBuildOptions options;
  options.num_threads = 4;
  auto parallel = RelationTrie::Build(rel, {"a2", "a0", "a1"}, options);
  ASSERT_TRUE(parallel.ok());
  for (size_t d = 0; d < 3; ++d) {
    EXPECT_EQ(serial->level_keys(d), parallel->level_keys(d));
    if (d + 1 < 3) {
      EXPECT_EQ(serial->child_begin(d), parallel->child_begin(d));
    }
  }
}

}  // namespace
}  // namespace xjoin
