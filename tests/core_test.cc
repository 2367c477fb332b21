// Tests for decomposition, path relations, the generic join engine,
// order selection, bounds, and validation.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <set>

#include "common/random.h"
#include "core/bound.h"
#include "core/decompose.h"
#include "core/generic_join.h"
#include "core/order.h"
#include "core/validate.h"
#include "core/virtual_relation.h"
#include "core/xjoin.h"
#include "relational/operators.h"
#include "relational/trie.h"
#include "tests/test_util.h"
#include "twigjoin/naive_twig.h"
#include "workload/paper_example.h"
#include "xml/parser.h"

namespace xjoin {
namespace {

TEST(DecomposeTest, PaperTwigYieldsFigure2Paths) {
  Twig twig = MakePaperTwig();
  auto d = DecomposeTwig(twig);
  ASSERT_TRUE(d.ok());
  ASSERT_EQ(d->paths.size(), 5u);
  EXPECT_EQ(d->paths[0].attributes, (std::vector<std::string>{"A", "B"}));
  EXPECT_EQ(d->paths[1].attributes, (std::vector<std::string>{"A", "D"}));
  EXPECT_EQ(d->paths[2].attributes, (std::vector<std::string>{"C", "E"}));
  EXPECT_EQ(d->paths[3].attributes, (std::vector<std::string>{"F", "H"}));
  EXPECT_EQ(d->paths[4].attributes, (std::vector<std::string>{"G"}));
  EXPECT_EQ(d->cut_edges.size(), 3u);  // A//C, E//F, F//G
}

TEST(DecomposeTest, PcOnlyTwigIsItsOwnPaths) {
  auto twig = Twig::Parse("a[b]/c/d");
  auto d = DecomposeTwig(*twig);
  ASSERT_TRUE(d.ok());
  ASSERT_EQ(d->paths.size(), 2u);
  EXPECT_EQ(d->paths[0].attributes, (std::vector<std::string>{"a", "b"}));
  EXPECT_EQ(d->paths[1].attributes, (std::vector<std::string>{"a", "c", "d"}));
  EXPECT_TRUE(d->cut_edges.empty());
}

TEST(DecomposeTest, AllDescendantEdgesGiveSingletons) {
  auto twig = Twig::Parse("a//b//c");
  auto d = DecomposeTwig(*twig);
  ASSERT_TRUE(d.ok());
  ASSERT_EQ(d->paths.size(), 3u);
  for (const auto& p : d->paths) EXPECT_EQ(p.attributes.size(), 1u);
  EXPECT_EQ(d->cut_edges.size(), 2u);
  EXPECT_FALSE(DecompositionToString(*twig, *d).empty());
}

TEST(PathRelationTest, MaterializeEnumeratesChains) {
  auto doc = ParseXml(
      "<r><a>1<b>x</b><b>y</b></a><a>2<b>x</b></a><a>3</a></r>");
  ASSERT_TRUE(doc.ok());
  Dictionary dict;
  NodeIndex index = NodeIndex::Build(&*doc, &dict);
  auto twig = Twig::Parse("a/b");
  auto d = DecomposeTwig(*twig);
  auto rel = PathRelation::Make(*twig, d->paths[0], &index);
  ASSERT_TRUE(rel.ok());
  auto mat = rel->Materialize();
  ASSERT_TRUE(mat.ok());
  EXPECT_EQ(mat->num_rows(), 3u);  // (1,x),(1,y),(2,x)
  EXPECT_EQ(rel->CountChains(), 3);
}

TEST(PathRelationTest, CountChainsCountsDuplicates) {
  // Two (a=1, b=x) chains: CountChains counts 4 chains while the
  // materialized set has 3 distinct tuples.
  auto doc = ParseXml(
      "<r><a>1<b>x</b><b>x</b><b>y</b></a><a>2<b>x</b></a></r>");
  Dictionary dict;
  NodeIndex index = NodeIndex::Build(&*doc, &dict);
  auto twig = Twig::Parse("a/b");
  auto d = DecomposeTwig(*twig);
  auto rel = PathRelation::Make(*twig, d->paths[0], &index);
  ASSERT_TRUE(rel.ok());
  EXPECT_EQ(rel->CountChains(), 4);
  EXPECT_EQ(rel->Materialize()->num_rows(), 3u);
}

TEST(PathRelationTest, AbsentTagYieldsEmpty) {
  auto doc = ParseXml("<r><a>1</a></r>");
  Dictionary dict;
  NodeIndex index = NodeIndex::Build(&*doc, &dict);
  auto twig = Twig::Parse("a/zzz");
  auto d = DecomposeTwig(*twig);
  auto rel = PathRelation::Make(*twig, d->paths[0], &index);
  ASSERT_TRUE(rel.ok());
  EXPECT_EQ(rel->Materialize()->num_rows(), 0u);
  EXPECT_EQ(rel->CountChains(), 0);
  // The lazy trie still exposes level-0 candidates (the 'a' nodes), but
  // descending under any of them finds nothing.
  auto it = rel->NewLazyIterator();
  KeySpan root = it->Open(0);
  ASSERT_GT(root.size(), 0u);
  EXPECT_EQ(it->Open(root.lo).size(), 0u);
}

TEST(PathRelationTest, WildcardRejected) {
  auto doc = ParseXml("<r><a>1</a></r>");
  Dictionary dict;
  NodeIndex index = NodeIndex::Build(&*doc, &dict);
  auto twig = Twig::Parse("a/*");
  auto d = DecomposeTwig(*twig);
  EXPECT_FALSE(PathRelation::Make(*twig, d->paths[0], &index).ok());
}

// Property: the lazy path trie enumerates exactly the materialized
// relation, on random documents and random linear paths.
class LazyPathTrieProperty : public ::testing::TestWithParam<int> {};

TEST_P(LazyPathTrieProperty, LazyEqualsMaterialized) {
  Rng rng(8000 + static_cast<uint64_t>(GetParam()));
  std::vector<std::string> tags = {"a", "b", "c"};
  auto doc = testing::RandomDocument(&rng, 2 + rng.NextBounded(40), tags, 3);
  Dictionary dict;
  NodeIndex index = NodeIndex::Build(doc.get(), &dict);
  // Random linear path twig of length 1..4 (P-C only, as produced by
  // decomposition).
  size_t len = 1 + rng.NextBounded(4);
  TwigBuilder tb;
  TwigNodeId prev = tb.AddRoot(tags[rng.NextBounded(tags.size())], "q0");
  for (size_t i = 1; i < len; ++i) {
    prev = tb.AddChild(prev, TwigAxis::kChild,
                       tags[rng.NextBounded(tags.size())],
                       "q" + std::to_string(i));
  }
  auto twig = tb.Finish();
  ASSERT_TRUE(twig.ok());
  auto d = DecomposeTwig(*twig);
  ASSERT_EQ(d->paths.size(), 1u);
  auto rel = PathRelation::Make(*twig, d->paths[0], &index);
  ASSERT_TRUE(rel.ok());

  auto lazy_it = rel->NewLazyIterator();
  std::vector<Tuple> lazy = testing::EnumerateTrie(lazy_it.get());

  auto mat = rel->Materialize();
  ASSERT_TRUE(mat.ok());
  ASSERT_EQ(lazy.size(), mat->num_rows());
  for (size_t r = 0; r < lazy.size(); ++r) {
    EXPECT_EQ(lazy[r], mat->GetRow(r));
  }
  EXPECT_GE(rel->CountChains(), static_cast<int64_t>(mat->num_rows()));
}

INSTANTIATE_TEST_SUITE_P(RandomInstances, LazyPathTrieProperty,
                         ::testing::Range(0, 40));

TEST(GenericJoinTest, TriangleQuery) {
  // Classic triangle R(A,B) ⋈ S(B,C) ⋈ T(A,C).
  auto mk = [](std::vector<Tuple> t, std::vector<std::string> attrs) {
    auto s = Schema::Make(attrs);
    return *Relation::FromTuples(*s, std::move(t));
  };
  Relation r = mk({{0, 1}, {0, 2}, {1, 2}}, {"A", "B"});
  Relation s = mk({{1, 2}, {2, 0}, {2, 3}}, {"B", "C"});
  Relation t = mk({{0, 2}, {0, 3}, {1, 0}}, {"A", "C"});

  auto tr = RelationTrie::Build(r, {"A", "B"});
  auto ts = RelationTrie::Build(s, {"B", "C"});
  auto tt = RelationTrie::Build(t, {"A", "C"});
  auto ir = tr->NewIterator();
  auto is = ts->NewIterator();
  auto it = tt->NewIterator();

  GenericJoinOptions opts;
  opts.attribute_order = {"A", "B", "C"};
  Metrics m;
  opts.metrics = &m;
  auto result = GenericJoin({{"R", {"A", "B"}, ir.get()},
                             {"S", {"B", "C"}, is.get()},
                             {"T", {"A", "C"}, it.get()}},
                            opts);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  // Triangles: (0,1,2), (0,2,3)? check: R(0,2) S(2,3) T(0,3) yes;
  // R(1,2) S(2,0) T(1,0) yes.
  EXPECT_EQ(result->num_rows(), 3u);
  EXPECT_TRUE(result->ContainsRow({0, 1, 2}));
  EXPECT_TRUE(result->ContainsRow({0, 2, 3}));
  EXPECT_TRUE(result->ContainsRow({1, 2, 0}));
  EXPECT_EQ(m.Get("gj.output"), 3);
  EXPECT_GT(m.Get("gj.seeks"), 0);
}

TEST(GenericJoinTest, RejectsUncoveredAttribute) {
  auto s = Schema::Make({"A"});
  Relation r(*s);
  auto trie = RelationTrie::Build(r, {"A"});
  auto it = trie->NewIterator();
  GenericJoinOptions opts;
  opts.attribute_order = {"A", "B"};
  EXPECT_FALSE(GenericJoin({{"R", {"A"}, it.get()}}, opts).ok());
}

TEST(GenericJoinTest, RejectsInconsistentInputOrder) {
  auto s = Schema::Make({"A", "B"});
  Relation r(*s);
  auto trie = RelationTrie::Build(r, {"B", "A"});
  auto it = trie->NewIterator();
  GenericJoinOptions opts;
  opts.attribute_order = {"A", "B"};
  EXPECT_FALSE(GenericJoin({{"R", {"B", "A"}, it.get()}}, opts).ok());
}

// Property: GenericJoin over random relations equals the hash-join plan.
class GenericJoinProperty : public ::testing::TestWithParam<int> {};

TEST_P(GenericJoinProperty, MatchesHashJoinPlan) {
  Rng rng(9000 + static_cast<uint64_t>(GetParam()));
  Dictionary dict;
  std::vector<std::string> pool = {"A", "B", "C", "D"};
  size_t num_rels = 2 + rng.NextBounded(2);
  std::vector<Relation> rels;
  std::vector<std::vector<std::string>> schemas;
  for (size_t i = 0; i < num_rels; ++i) {
    std::vector<std::string> attrs;
    for (const auto& a : pool) {
      if (rng.NextBernoulli(0.6)) attrs.push_back(a);
    }
    if (attrs.empty()) attrs.push_back(pool[rng.NextBounded(4)]);
    schemas.push_back(attrs);
    rels.push_back(testing::RandomRelation(&rng, &dict, attrs,
                                           5 + rng.NextBounded(25), 4));
  }
  // Global order: union of attrs in pool order.
  std::vector<std::string> order;
  for (const auto& a : pool) {
    for (const auto& schema : schemas) {
      if (std::find(schema.begin(), schema.end(), a) != schema.end()) {
        order.push_back(a);
        break;
      }
    }
  }

  std::vector<RelationTrie> tries;
  std::vector<std::unique_ptr<TrieIterator>> iters;
  std::vector<JoinInput> inputs;
  tries.reserve(num_rels);
  for (size_t i = 0; i < num_rels; ++i) {
    std::vector<std::string> trie_order;
    for (const auto& a : order) {
      if (std::find(schemas[i].begin(), schemas[i].end(), a) !=
          schemas[i].end()) {
        trie_order.push_back(a);
      }
    }
    auto trie = RelationTrie::Build(rels[i], trie_order);
    ASSERT_TRUE(trie.ok());
    tries.push_back(*std::move(trie));
  }
  for (size_t i = 0; i < num_rels; ++i) {
    iters.push_back(tries[i].NewIterator());
    inputs.push_back(
        JoinInput{"R" + std::to_string(i), tries[i].attribute_order(),
                  iters.back().get()});
  }

  GenericJoinOptions opts;
  opts.attribute_order = order;
  auto fast = GenericJoin(inputs, opts);
  ASSERT_TRUE(fast.ok()) << fast.status().ToString();

  std::vector<const Relation*> rel_ptrs;
  for (const auto& r : rels) rel_ptrs.push_back(&r);
  Relation slow = testing::NaiveNaturalJoin(rel_ptrs);
  auto slow_proj = Project(slow, order);
  ASSERT_TRUE(slow_proj.ok());
  Relation fast_copy = *fast;
  fast_copy.SortAndDedup();
  EXPECT_TRUE(RelationsEqualAsSets(fast_copy, *slow_proj));
}

INSTANTIATE_TEST_SUITE_P(RandomInstances, GenericJoinProperty,
                         ::testing::Range(0, 40));

TEST(OrderTest, RespectsPathPrecedence) {
  PaperInstance inst = MakePaperInstance(3, PaperSchema::kExample34,
                                         PaperDataMode::kAdversarial);
  MultiModelQuery q = inst.Query();
  auto order = ChooseAttributeOrder(q);
  ASSERT_TRUE(order.ok());
  EXPECT_TRUE(CheckAttributeOrder(q, *order).ok());
  // A before B and D; C before E; F before H.
  auto pos = [&](const std::string& a) {
    return std::find(order->begin(), order->end(), a) - order->begin();
  };
  EXPECT_LT(pos("A"), pos("B"));
  EXPECT_LT(pos("A"), pos("D"));
  EXPECT_LT(pos("C"), pos("E"));
  EXPECT_LT(pos("F"), pos("H"));
  EXPECT_EQ(order->size(), 8u);
}

TEST(OrderTest, SmallestDomainHeuristicIsValidToo) {
  PaperInstance inst = MakePaperInstance(5, PaperSchema::kExample34,
                                         PaperDataMode::kAdversarial);
  MultiModelQuery q = inst.Query();
  auto order = ChooseAttributeOrder(q, OrderHeuristic::kSmallestDomain);
  ASSERT_TRUE(order.ok()) << order.status().ToString();
  EXPECT_TRUE(CheckAttributeOrder(q, *order).ok());
  // Both heuristics must produce the same answer through XJoin.
  PlanSettings a;
  a.order_heuristic = OrderHeuristic::kCoverage;
  PlanSettings b;
  b.order_heuristic = OrderHeuristic::kSmallestDomain;
  auto ra = ExecuteXJoin(q, a);
  auto rb = ExecuteXJoin(q, b);
  ASSERT_TRUE(ra.ok() && rb.ok());
  // Column order follows the expansion order; compare as sets after
  // projecting onto a common schema.
  auto rb_proj = Project(*rb, ra->schema().attributes());
  ASSERT_TRUE(rb_proj.ok());
  Relation ra_copy = *ra;
  ra_copy.SortAndDedup();
  EXPECT_TRUE(RelationsEqualAsSets(ra_copy, *rb_proj));
}

TEST(OrderTest, CheckRejectsBadOrders) {
  PaperInstance inst = MakePaperInstance(2, PaperSchema::kExample34,
                                         PaperDataMode::kAdversarial);
  MultiModelQuery q = inst.Query();
  EXPECT_FALSE(CheckAttributeOrder(q, {"A"}).ok());  // missing attrs
  EXPECT_FALSE(
      CheckAttributeOrder(
          q, {"B", "A", "C", "D", "E", "F", "G", "H"}).ok());  // B before A
  EXPECT_FALSE(
      CheckAttributeOrder(
          q, {"A", "A", "C", "D", "E", "F", "G", "H"}).ok());  // repeat
  EXPECT_TRUE(
      CheckAttributeOrder(
          q, {"A", "B", "C", "D", "E", "F", "G", "H"}).ok());
}

TEST(BoundTest, PaperUniformBounds) {
  PaperInstance inst = MakePaperInstance(4, PaperSchema::kExample33,
                                         PaperDataMode::kAdversarial);
  MultiModelQuery q = inst.Query();
  BoundOptions opts;
  opts.path_size_mode = PathSizeMode::kUniform;
  opts.uniform_n = 16.0;
  auto bound = ComputeBound(q, opts);
  ASSERT_TRUE(bound.ok()) << bound.status().ToString();
  EXPECT_NEAR(bound->cover.uniform_exponent, 3.5, 1e-6);

  PaperInstance inst34 = MakePaperInstance(4, PaperSchema::kExample34,
                                           PaperDataMode::kAdversarial);
  MultiModelQuery q34 = inst34.Query();
  auto bound34 = ComputeBound(q34, opts);
  ASSERT_TRUE(bound34.ok());
  EXPECT_NEAR(bound34->cover.uniform_exponent, 2.0, 1e-6);
}

TEST(BoundTest, ExactAndChainCountModes) {
  PaperInstance inst = MakePaperInstance(3, PaperSchema::kExample34,
                                         PaperDataMode::kAdversarial);
  MultiModelQuery q = inst.Query();
  BoundOptions exact;
  exact.path_size_mode = PathSizeMode::kExact;
  auto b1 = ComputeBound(q, exact);
  ASSERT_TRUE(b1.ok());
  BoundOptions chain;
  chain.path_size_mode = PathSizeMode::kChainCount;
  auto b2 = ComputeBound(q, chain);
  ASSERT_TRUE(b2.ok());
  // Chain counts upper-bound exact sizes, so the bound can only grow.
  EXPECT_GE(b2->cover.log2_bound, b1->cover.log2_bound - 1e-9);
}

TEST(ValidateTest, FullAssignmentExactness) {
  auto doc = ParseXml(
      "<r><a>1<b>x</b></a><a>2<b>y</b></a><c>only-under-a2</c></r>");
  ASSERT_TRUE(doc.ok());
  Dictionary dict;
  NodeIndex index = NodeIndex::Build(&*doc, &dict);
  auto twig = Twig::Parse("a/b");
  TwigStructureValidator v(&*twig, &index);
  ValidationScratch scratch;
  auto val = [&](const char* s) { return dict.Lookup(s); };
  // (1,x) and (2,y) embed; (1,y) does not.
  EXPECT_TRUE(v.ExistsEmbedding({val("1"), val("x")}, &scratch));
  EXPECT_TRUE(v.ExistsEmbedding({val("2"), val("y")}, &scratch));
  EXPECT_FALSE(v.ExistsEmbedding({val("1"), val("y")}, &scratch));
}

TEST(ValidateTest, DescendantEdgesChecked) {
  auto doc = ParseXml("<r><a>1<m><b>x</b></m></a><a>2</a><b>y</b></r>");
  Dictionary dict;
  NodeIndex index = NodeIndex::Build(&*doc, &dict);
  auto twig = Twig::Parse("a//b");
  TwigStructureValidator v(&*twig, &index);
  ValidationScratch scratch;
  auto val = [&](const char* s) { return dict.Lookup(s); };
  EXPECT_TRUE(v.ExistsEmbedding({val("1"), val("x")}, &scratch));
  EXPECT_FALSE(v.ExistsEmbedding({val("2"), val("x")}, &scratch));  // b not under a2
  EXPECT_FALSE(v.ExistsEmbedding({val("1"), val("y")}, &scratch));  // y outside a1
}

TEST(ValidateTest, ReusedScratchMatchesFreshScratch) {
  auto doc = ParseXml(
      "<r><a>1<b>x</b><c>p</c></a><a>2<b>y</b><c>q</c></a>"
      "<a>1<m><b>y</b></m></a></r>");
  ASSERT_TRUE(doc.ok());
  Dictionary dict;
  NodeIndex index = NodeIndex::Build(&*doc, &dict);
  auto with_c = Twig::Parse("a[c]/b");
  auto desc = Twig::Parse("a//b");
  auto missing = Twig::Parse("z/a");       // no z in the document
  auto missing_leaf = Twig::Parse("a/z");  // z is visited first
  ASSERT_TRUE(with_c.ok() && desc.ok() && missing.ok() && missing_leaf.ok());
  TwigStructureValidator v_with_c(&*with_c, &index);
  TwigStructureValidator v_desc(&*desc, &index);
  TwigStructureValidator v_missing(&*missing, &index);
  TwigStructureValidator v_missing_leaf(&*missing_leaf, &index);

  // Binds every twig node to the value `bound` gives its tag.
  auto assign = [&](const Twig& twig,
                    const std::map<std::string, std::string>& bound) {
    std::vector<int64_t> values(twig.num_nodes());
    for (size_t q = 0; q < twig.num_nodes(); ++q) {
      const TwigNode& node = twig.node(static_cast<TwigNodeId>(q));
      values[q] = dict.Lookup(bound.at(node.tag));
    }
    return values;
  };
  struct Call {
    const TwigStructureValidator* validator;
    std::vector<int64_t> values;
    bool expected;
  };
  std::vector<Call> calls = {
      {&v_with_c, assign(*with_c, {{"a", "1"}, {"c", "p"}, {"b", "x"}}), true},
      {&v_with_c, assign(*with_c, {{"a", "2"}, {"c", "p"}, {"b", "y"}}),
       false},
      // The third a-node has b=y only below m, not as a child.
      {&v_with_c, assign(*with_c, {{"a", "1"}, {"c", "p"}, {"b", "y"}}),
       false},
      {&v_with_c, assign(*with_c, {{"a", "1"}, {"c", "q"}, {"b", "x"}}),
       false},
      {&v_with_c, assign(*with_c, {{"a", "2"}, {"c", "q"}, {"b", "y"}}), true},
      {&v_with_c, assign(*with_c, {{"a", "2"}, {"c", "q"}, {"b", "x"}}),
       false},
      // Early failures: no candidates for the first node visited; a tag
      // absent from the document, visited first and then after a node
      // with candidates.
      {&v_with_c, assign(*with_c, {{"a", "1"}, {"c", "p"}, {"b", "p"}}),
       false},
      {&v_missing_leaf, assign(*missing_leaf, {{"a", "1"}, {"z", "1"}}),
       false},
      {&v_missing, assign(*missing, {{"z", "1"}, {"a", "1"}}), false},
      {&v_missing, assign(*missing, {{"z", "2"}, {"a", "2"}}), false},
      // A second twig of a different shape, then back to the first.
      {&v_desc, assign(*desc, {{"a", "1"}, {"b", "y"}}), true},
      {&v_desc, assign(*desc, {{"a", "2"}, {"b", "x"}}), false},
      {&v_with_c, assign(*with_c, {{"a", "2"}, {"c", "q"}, {"b", "y"}}), true},
  };

  ValidationScratch reused;
  for (size_t i = 0; i < calls.size(); ++i) {
    SCOPED_TRACE("call " + std::to_string(i));
    const Call& call = calls[i];
    Metrics reused_metrics;
    bool got = call.validator->ExistsEmbedding(call.values, &reused,
                                               &reused_metrics);
    ValidationScratch fresh;
    Metrics fresh_metrics;
    bool want = call.validator->ExistsEmbedding(call.values, &fresh,
                                                &fresh_metrics);
    EXPECT_EQ(got, call.expected);
    EXPECT_EQ(got, want);
    // Same total and same presence of the counter.
    EXPECT_EQ(reused_metrics.counters(), fresh_metrics.counters());
  }

  // Exact counter semantics on the early exits: a call that stops at an
  // absent tag before any lookup records nothing; a lookup with no
  // candidates records 0; otherwise the sum over the nodes examined.
  Metrics m;
  EXPECT_FALSE(v_missing_leaf.ExistsEmbedding(calls[7].values, &reused, &m));
  EXPECT_EQ(m.counters().count("validate.candidates"), 0u);
  EXPECT_FALSE(v_missing.ExistsEmbedding(calls[8].values, &reused, &m));
  EXPECT_EQ(m.Get("validate.candidates"), 2);  // two a-nodes with "1"
  m.Clear();
  EXPECT_FALSE(v_with_c.ExistsEmbedding(calls[6].values, &reused, &m));
  ASSERT_EQ(m.counters().count("validate.candidates"), 1u);
  EXPECT_EQ(m.Get("validate.candidates"), 0);
  m.Clear();
  EXPECT_TRUE(v_with_c.ExistsEmbedding(calls[0].values, &reused, &m));
  EXPECT_EQ(m.Get("validate.candidates"), 4);  // two a, one c, one b
}

// Property: on full assignments the validator agrees with the naive
// matcher's value-level semantics.
class ValidateProperty : public ::testing::TestWithParam<int> {};

TEST_P(ValidateProperty, AgreesWithNaiveMatcherOnFullAssignments) {
  Rng rng(10000 + static_cast<uint64_t>(GetParam()));
  std::vector<std::string> tags = {"a", "b", "c"};
  auto doc = testing::RandomDocument(&rng, 2 + rng.NextBounded(30), tags, 3);
  Dictionary dict;
  NodeIndex index = NodeIndex::Build(doc.get(), &dict);
  Twig twig = testing::RandomTwig(&rng, 1 + rng.NextBounded(4), tags);
  TwigStructureValidator validator(&twig, &index);
  ValidationScratch scratch;

  // Value tuples with >= 1 embedding, from the oracle.
  auto matches = MatchTwigNaive(*doc, twig);
  std::set<std::vector<int64_t>> valid_tuples;
  for (const auto& m : matches) {
    std::vector<int64_t> vals(m.size());
    for (size_t i = 0; i < m.size(); ++i) vals[i] = index.ValueOf(m[i]);
    valid_tuples.insert(vals);
  }
  // Every oracle tuple must validate.
  for (const auto& vals : valid_tuples) {
    EXPECT_TRUE(validator.ExistsEmbedding(vals, &scratch));
  }
  // Perturbed tuples must validate iff they are themselves oracle tuples.
  Rng rng2(777 + static_cast<uint64_t>(GetParam()));
  for (const auto& vals : valid_tuples) {
    std::vector<int64_t> mutated = vals;
    size_t pos = rng2.NextBounded(mutated.size());
    mutated[pos] = dict.Intern("v" + std::to_string(rng2.NextBounded(3)));
    EXPECT_EQ(validator.ExistsEmbedding(mutated, &scratch),
              valid_tuples.count(mutated) > 0);
    if (valid_tuples.size() > 400) break;  // cap runtime
  }
}

INSTANTIATE_TEST_SUITE_P(RandomInstances, ValidateProperty,
                         ::testing::Range(0, 40));

}  // namespace
}  // namespace xjoin
