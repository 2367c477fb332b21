// End-to-end tests of XJoin and the baseline: differential equivalence,
// the paper's example instances, and the Lemma 3.5 optimality property
// (per-stage intermediates within the LP bound).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <set>

#include "common/budget.h"
#include "common/cancel.h"
#include "common/random.h"
#include "core/baseline.h"
#include "core/bound.h"
#include "core/decompose.h"
#include "core/query.h"
#include "core/xjoin.h"
#include "relational/operators.h"
#include "tests/test_util.h"
#include "twigjoin/naive_twig.h"
#include "workload/adversarial.h"
#include "workload/bookstore.h"
#include "workload/paper_example.h"
#include "workload/xmark.h"
#include "xml/parser.h"

namespace xjoin {
namespace {

// Reference evaluator: naive twig matches -> value tuples, then naive
// natural join with the relations, then projection. The oracle has set
// semantics: twig value tuples are deduplicated here, and
// ExpectSameAnswer compares with RelationsEqualAsSets, so duplicate
// input rows are not checked as bags (multiplicities are ignored).
Relation ReferenceAnswer(const MultiModelQuery& query) {
  std::vector<Relation> twig_values;
  for (const auto& ti : query.twigs) {
    auto schema = Schema::Make(ti.twig.attributes());
    Relation values(*schema);
    for (const auto& m : MatchTwigNaive(ti.index->doc(), ti.twig)) {
      Tuple row(m.size());
      for (size_t i = 0; i < m.size(); ++i) row[i] = ti.index->ValueOf(m[i]);
      values.AppendRow(row);
    }
    values.SortAndDedup();
    twig_values.push_back(std::move(values));
  }
  std::vector<const Relation*> inputs;
  for (const auto& nr : query.relations) inputs.push_back(nr.relation);
  for (const auto& tv : twig_values) inputs.push_back(&tv);
  Relation joined = testing::NaiveNaturalJoin(inputs);
  if (query.output_attributes.empty()) return joined;
  return *Project(joined, query.output_attributes);
}

void ExpectSameAnswer(const MultiModelQuery& query, const PlanSettings& opts) {
  auto fast = ExecuteXJoin(query, opts);
  ASSERT_TRUE(fast.ok()) << fast.status().ToString();
  Relation expected = ReferenceAnswer(query);
  auto fast_proj = Project(*fast, expected.schema().attributes());
  ASSERT_TRUE(fast_proj.ok());
  EXPECT_TRUE(RelationsEqualAsSets(*fast_proj, expected))
      << "XJoin diverged from reference\nXJoin:\n"
      << fast_proj->ToString() << "\nreference:\n"
      << expected.ToString();
}

TEST(XJoinTest, Figure1BookstoreExample) {
  // The exact Figure 1 data.
  auto doc = ParseXml(R"(
    <invoices>
      <invoice><orderID>10963</orderID>
        <orderLine><ISBN>978-3-16-1</ISBN><price>30</price>
                   <discount>0.1</discount></orderLine>
      </invoice>
      <invoice><orderID>20134</orderID>
        <orderLine><ISBN>634-3-12-2</ISBN><price>20</price>
                   <discount>0.3</discount></orderLine>
      </invoice>
    </invoices>)");
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  Dictionary dict;
  NodeIndex index = NodeIndex::Build(&*doc, &dict);

  auto schema = Schema::Make({"orderID", "userID"});
  Relation orders(*schema);
  orders.AppendRow({dict.Intern("10963"), dict.Intern("jack")});
  orders.AppendRow({dict.Intern("20134"), dict.Intern("tom")});
  orders.AppendRow({dict.Intern("35768"), dict.Intern("bob")});

  MultiModelQuery q;
  q.relations.push_back({"R", &orders});
  auto twig = Twig::Parse("invoice[orderID]/orderLine[ISBN]/price");
  ASSERT_TRUE(twig.ok());
  q.twigs.push_back(TwigInput{*std::move(twig), &index});
  q.output_attributes = {"userID", "ISBN", "price"};

  auto result = ExecuteXJoin(q);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result->num_rows(), 2u);
  EXPECT_TRUE(result->ContainsRow(
      {dict.Lookup("jack"), dict.Lookup("978-3-16-1"), dict.Lookup("30")}));
  EXPECT_TRUE(result->ContainsRow(
      {dict.Lookup("tom"), dict.Lookup("634-3-12-2"), dict.Lookup("20")}));
}

// A branching tag that repeats text defeats certification: the value
// join on a's paths pairs every b with every c under a=1, though no one
// <a> holds both z and y. Only the final validation removes those rows.
TEST(XJoinTest, RepeatedBranchingValuesKeepFinalValidation) {
  auto doc = ParseXml(
      "<r><a>1<b>x</b><c>y</c></a><a>1<b>z</b><c>w</c></a></r>");
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  Dictionary dict;
  NodeIndex index = NodeIndex::Build(&*doc, &dict);
  auto twig = Twig::Parse("a[b,c]");
  ASSERT_TRUE(twig.ok());
  MultiModelQuery q;
  q.twigs.push_back(TwigInput{*std::move(twig), &index});

  auto plan = PrepareXJoin(q);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  EXPECT_FALSE((*plan)->twigs[0].certified);
  Metrics metrics;
  EngineServices services;
  services.metrics = &metrics;
  auto result = ExecutePlan(**plan, services);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(metrics.Get("xjoin.expanded"), 4);
  EXPECT_GT(metrics.Get("xjoin.expanded"), metrics.Get("xjoin.validated"));
  Relation expected = ReferenceAnswer(q);
  EXPECT_EQ(expected.num_rows(), 2u);
  auto got = Project(*result, expected.schema().attributes());
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got->ToTuples(), expected.ToTuples());
}

TEST(XJoinTest, PaperAdversarialInstanceHasNResults) {
  for (int64_t n : {1, 2, 5, 8}) {
    PaperInstance inst = MakePaperInstance(n, PaperSchema::kExample34,
                                           PaperDataMode::kAdversarial);
    MultiModelQuery q = inst.Query();
    auto result = ExecuteXJoin(q);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_EQ(result->num_rows(), static_cast<size_t>(n)) << "n=" << n;
  }
}

TEST(XJoinTest, PaperInstanceTwigAloneHasN5Embeddings) {
  const int64_t n = 3;
  PaperInstance inst = MakePaperInstance(n, PaperSchema::kExample34,
                                         PaperDataMode::kAdversarial);
  auto matches = MatchTwigNaive(*inst.doc, inst.twig);
  EXPECT_EQ(matches.size(), static_cast<size_t>(n * n * n * n * n));
}

TEST(XJoinTest, AgreesWithBaselineOnPaperInstances) {
  for (PaperSchema schema :
       {PaperSchema::kExample33, PaperSchema::kExample34}) {
    for (PaperDataMode mode :
         {PaperDataMode::kAdversarial, PaperDataMode::kRandom}) {
      PaperInstance inst = MakePaperInstance(4, schema, mode);
      MultiModelQuery q = inst.Query();
      auto a = ExecuteXJoin(q);
      ASSERT_TRUE(a.ok()) << a.status().ToString();
      auto b = ExecuteBaseline(q);
      ASSERT_TRUE(b.ok()) << b.status().ToString();
      auto b_proj = Project(*b, a->schema().attributes());
      ASSERT_TRUE(b_proj.ok());
      EXPECT_TRUE(RelationsEqualAsSets(*a, *b_proj));
    }
  }
}

TEST(XJoinTest, ExplicitAttributeOrderHonored) {
  PaperInstance inst = MakePaperInstance(3, PaperSchema::kExample34,
                                         PaperDataMode::kAdversarial);
  MultiModelQuery q = inst.Query();
  PlanSettings opts;
  opts.attribute_order = {"A", "D", "B", "C", "E", "F", "G", "H"};
  auto result = ExecuteXJoin(q, opts);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->num_rows(), 3u);

  opts.attribute_order = {"B", "A", "D", "C", "E", "F", "G", "H"};
  EXPECT_FALSE(ExecuteXJoin(q, opts).ok());  // violates precedence
}

TEST(XJoinTest, RelationalOnlyQueryWorks) {
  // No twigs at all: XJoin degenerates to a pure WCOJ.
  auto inst = MakeAgmTightInstance({{"A", "B"}, {"B", "C"}, {"C", "A"}}, 16);
  ASSERT_TRUE(inst.ok());
  MultiModelQuery q;
  for (size_t i = 0; i < inst->relations.size(); ++i) {
    q.relations.push_back(
        {"R" + std::to_string(i + 1), inst->relations[i].get()});
  }
  auto result = ExecuteXJoin(q);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_NEAR(static_cast<double>(result->num_rows()),
              inst->expected_join_size, 1e-9);
}

TEST(XJoinTest, TwigOnlyQueryWorks) {
  auto doc = ParseXml("<r><a>1<b>x</b></a><a>2<b>y</b></a></r>");
  Dictionary dict;
  NodeIndex index = NodeIndex::Build(&*doc, &dict);
  MultiModelQuery q;
  auto twig = Twig::Parse("a/b");
  q.twigs.push_back(TwigInput{*std::move(twig), &index});
  auto result = ExecuteXJoin(q);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->num_rows(), 2u);
}

TEST(XJoinTest, EmptyQueryRejected) {
  MultiModelQuery q;
  EXPECT_FALSE(ExecuteXJoin(q).ok());
  EXPECT_FALSE(ExecuteBaseline(q).ok());
}

TEST(XJoinTest, Lemma35IntermediatesWithinBound) {
  // Per-stage intermediate counts must stay within the AGM bound of the
  // whole query (the LP bound of Equation 1) on the adversarial
  // instance. (Each prefix's count is bounded by the full bound since
  // projections cannot exceed it.)
  const int64_t n = 6;
  PaperInstance inst = MakePaperInstance(n, PaperSchema::kExample34,
                                         PaperDataMode::kAdversarial);
  MultiModelQuery q = inst.Query();
  BoundOptions bopts;
  bopts.path_size_mode = PathSizeMode::kChainCount;
  auto bound = ComputeBound(q, bopts);
  ASSERT_TRUE(bound.ok());
  Metrics m;
  EngineServices services;
  services.metrics = &m;
  auto result = ExecuteXJoin(q, PlanSettings{}, services);
  ASSERT_TRUE(result.ok());
  double limit = std::exp2(bound->cover.log2_bound);
  for (size_t d = 0; d < 8; ++d) {
    int64_t count = m.Get("gj.level" + std::to_string(d) + ".bindings");
    EXPECT_LE(static_cast<double>(count), limit + 1e-6)
        << "stage " << d << " exceeded the worst-case bound";
  }
  // And the baseline's peak intermediate must blow past XJoin's on this
  // instance (the Figure 3 phenomenon).
  Metrics bm;
  BaselineOptions bl;
  bl.metrics = &bm;
  auto base = ExecuteBaseline(q, bl);
  ASSERT_TRUE(base.ok());
  EXPECT_GT(bm.Get("baseline.max_intermediate"),
            m.Get("xjoin.max_intermediate"));
}

TEST(XJoinTest, AgmTightInstanceSaturatesBound) {
  // Lemma 3.2: the generated instance's join size equals the bound.
  auto inst = MakeAgmTightInstance({{"A", "B"}, {"B", "C"}, {"C", "A"}}, 64);
  ASSERT_TRUE(inst.ok());
  MultiModelQuery q;
  for (size_t i = 0; i < inst->relations.size(); ++i) {
    q.relations.push_back(
        {"R" + std::to_string(i + 1), inst->relations[i].get()});
    EXPECT_LE(inst->relations[i]->num_rows(), 64u);
  }
  auto result = ExecuteXJoin(q);
  ASSERT_TRUE(result.ok());
  EXPECT_NEAR(static_cast<double>(result->num_rows()),
              inst->expected_join_size, 1e-9);
  // 64^1.5 = 512 when domains split evenly.
  EXPECT_EQ(result->num_rows(), 512u);
}

TEST(BaselineTest, StrategiesAgree) {
  PaperInstance inst = MakePaperInstance(3, PaperSchema::kExample34,
                                         PaperDataMode::kRandom);
  MultiModelQuery q = inst.Query();
  BaselineOptions a, b, c, d;
  a.strategy = TwigMatchStrategy::kPathStack;
  b.strategy = TwigMatchStrategy::kStructuralPlan;
  c.strategy = TwigMatchStrategy::kNaive;
  d.strategy = TwigMatchStrategy::kTwigStack;
  auto ra = ExecuteBaseline(q, a);
  auto rb = ExecuteBaseline(q, b);
  auto rc = ExecuteBaseline(q, c);
  auto rd = ExecuteBaseline(q, d);
  ASSERT_TRUE(ra.ok() && rb.ok() && rc.ok() && rd.ok());
  auto pb = Project(*rb, ra->schema().attributes());
  auto pc = Project(*rc, ra->schema().attributes());
  auto pd = Project(*rd, ra->schema().attributes());
  EXPECT_TRUE(RelationsEqualAsSets(*ra, *pb));
  EXPECT_TRUE(RelationsEqualAsSets(*ra, *pc));
  EXPECT_TRUE(RelationsEqualAsSets(*ra, *pd));
}

TEST(WorkloadTest, XMarkQueriesAnswerAndAgree) {
  XMarkOptions opts;
  opts.num_items = 40;
  opts.num_persons = 25;
  opts.num_open_auctions = 30;
  opts.num_closed_auctions = 25;
  XMarkInstance inst = MakeXMark(opts);
  ASSERT_TRUE(inst.doc->Validate().ok());
  for (MultiModelQuery q :
       {inst.ClosedAuctionQuery(), inst.OpenAuctionQuery()}) {
    auto a = ExecuteXJoin(q);
    ASSERT_TRUE(a.ok()) << a.status().ToString();
    EXPECT_GT(a->num_rows(), 0u);
    auto b = ExecuteBaseline(q);
    ASSERT_TRUE(b.ok());
    auto bp = Project(*b, a->schema().attributes());
    EXPECT_TRUE(RelationsEqualAsSets(*a, *bp));
  }
}

TEST(WorkloadTest, BookstoreQueriesAnswerAndAgree) {
  BookstoreOptions opts;
  opts.num_orders = 80;
  opts.num_invoices = 60;
  opts.num_users = 20;
  opts.num_books = 30;
  BookstoreInstance inst = MakeBookstore(opts);
  ASSERT_TRUE(inst.doc->Validate().ok());
  for (MultiModelQuery q : {inst.Figure1Query(), inst.EnrichedQuery()}) {
    auto a = ExecuteXJoin(q);
    ASSERT_TRUE(a.ok()) << a.status().ToString();
    EXPECT_GT(a->num_rows(), 0u);
    auto b = ExecuteBaseline(q);
    ASSERT_TRUE(b.ok());
    auto bp = Project(*b, a->schema().attributes());
    EXPECT_TRUE(RelationsEqualAsSets(*a, *bp));
  }
}

// The budget is the engine's only cancel channel. A token attached to
// it before prepare stops PrepareXJoin ahead of the first trie build;
// attached before execution, it stops ExecutePlan before any row is
// expanded, serial and sharded.
TEST(XJoinTest, CancelledBudgetStopsPrepareAndExecute) {
  PaperInstance inst = MakePaperInstance(5, PaperSchema::kExample34,
                                         PaperDataMode::kRandom);
  MultiModelQuery q = inst.Query();
  CancellationToken token;
  token.Cancel("engine-level cancel");
  BudgetTracker cancelled(/*max_rows=*/0, /*max_bytes=*/0,
                          /*deadline_micros=*/0, &token);

  {
    Metrics m;
    EngineServices services;
    services.metrics = &m;
    services.budget = &cancelled;
    auto plan = PrepareXJoin(q, PlanSettings{}, services);
    ASSERT_FALSE(plan.ok());
    EXPECT_EQ(plan.status().code(), StatusCode::kCancelled)
        << plan.status().ToString();
    EXPECT_NE(plan.status().ToString().find("engine-level cancel"),
              std::string::npos);
    for (const auto& [name, value] : m.counters()) {
      EXPECT_NE(name.rfind("trie.", 0), 0u) << name << "=" << value;
    }
    EXPECT_EQ(m.Get("plan.prepared"), 0);
  }

  for (int threads : {1, 4}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    PlanSettings settings;
    settings.num_threads = threads;
    auto plan = PrepareXJoin(q, settings);
    ASSERT_TRUE(plan.ok()) << plan.status().ToString();
    ASSERT_TRUE(ExecutePlan(**plan).ok());
    Metrics m;
    EngineServices services;
    services.metrics = &m;
    services.budget = &cancelled;
    auto result = ExecutePlan(**plan, services);
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.status().code(), StatusCode::kCancelled)
        << result.status().ToString();
    EXPECT_EQ(m.Get("gj.output"), 0);
    EXPECT_EQ(m.Get("xjoin.expanded"), 0);
  }
}

// ExecutePlan's projection takes one of three paths: an output that is
// all of the plan order keeps the gathered rows as they are, a strict
// prefix of it drops adjacent repeats, and any other column list is
// sorted. Each path must return the reference answer row for row —
// sorted, distinct, same rows — serial and on four threads. The order
// is pinned to the planner's own choice so each case takes its path.
// `prefix_repeats`: the two-attribute prefix projection must have
// repeats to drop (false where the order leads with a node identity).
void ExpectProjectionPathsMatchReference(
    const MultiModelQuery& query, const std::vector<std::string>& non_prefix,
    bool prefix_repeats) {
  auto plan = PrepareXJoin(query, PlanSettings{});
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  const std::vector<std::string> order = (*plan)->order;
  ASSERT_GE(order.size(), 3u);
  const std::vector<std::string> prefix(order.begin(), order.begin() + 2);
  ASSERT_FALSE(non_prefix.size() <= order.size() &&
               std::equal(non_prefix.begin(), non_prefix.end(),
                          order.begin()));

  struct Case {
    const char* path;
    std::vector<std::string> output;
  };
  std::vector<size_t> rows_per_case;
  for (const Case& c : {Case{"whole order", order},
                        Case{"strict prefix", prefix},
                        Case{"not a prefix", non_prefix}}) {
    SCOPED_TRACE(c.path);
    MultiModelQuery q = query;
    q.output_attributes = c.output;
    Relation expected = ReferenceAnswer(q);
    ASSERT_GT(expected.num_rows(), 0u);
    for (int threads : {1, 4}) {
      SCOPED_TRACE("threads=" + std::to_string(threads));
      PlanSettings opts;
      opts.attribute_order = order;
      opts.num_threads = threads;
      auto got = ExecuteXJoin(q, opts);
      ASSERT_TRUE(got.ok()) << got.status().ToString();
      EXPECT_EQ(got->schema().attributes(), c.output);
      EXPECT_EQ(got->ToTuples(), expected.ToTuples());
    }
    rows_per_case.push_back(expected.num_rows());
  }
  if (prefix_repeats) {
    EXPECT_LT(rows_per_case[1], rows_per_case[0]);
  }
}

TEST(XJoinTest, ProjectionPathsOnAgmTightCycle) {
  auto inst = MakeAgmTightInstance({{"A", "B"}, {"B", "C"}, {"C", "A"}}, 64);
  ASSERT_TRUE(inst.ok());
  MultiModelQuery q;
  for (size_t i = 0; i < inst->relations.size(); ++i) {
    q.relations.push_back(
        {"R" + std::to_string(i + 1), inst->relations[i].get()});
  }
  ExpectProjectionPathsMatchReference(q, {"C", "A"}, /*prefix_repeats=*/true);
}

TEST(XJoinTest, ProjectionPathsOnBookstoreFigure1) {
  BookstoreOptions opts;
  opts.num_orders = 80;
  opts.num_invoices = 60;
  opts.num_users = 20;
  opts.num_books = 30;
  BookstoreInstance inst = MakeBookstore(opts);
  MultiModelQuery q = inst.Figure1Query();
  ExpectProjectionPathsMatchReference(q, q.output_attributes,
                                      /*prefix_repeats=*/true);
}

TEST(XJoinTest, ProjectionPathsOnXMarkClosedAuctions) {
  XMarkOptions opts;
  opts.num_items = 40;
  opts.num_persons = 25;
  opts.num_open_auctions = 5;
  opts.num_closed_auctions = 60;
  XMarkInstance inst = MakeXMark(opts);
  MultiModelQuery q = inst.ClosedAuctionQuery();
  // The order leads with closed_auction, and each auction node yields
  // one row, so its prefixes have no repeats.
  ExpectProjectionPathsMatchReference(q, q.output_attributes,
                                      /*prefix_repeats=*/false);
}

// The heavyweight differential property: random document + random P-C/A-D
// twig + random relations over twig attributes; XJoin under several
// configurations must equal the brute-force reference.
//
// Document modes. kRandomText gives 80% of nodes one of 3 text values,
// so a branching tag almost always repeats values and random twigs are
// almost never certified (XJoinPlan::TwigExec::certified). The other
// modes make certified twigs common: no text at all, text on leaves
// only, and kNodeIdAlways values. Their twigs are read off the document
// (SampledTwig) and their relations draw values from its nodes, half of
// their rows from twig matches, so the join is not empty by
// construction.
enum class DocMode { kRandomText, kNoText, kLeafText, kNodeIdValues };

struct DiffParam {
  int seed;
  bool random_order;  ///< a random valid attribute_order (see below)
  DocMode doc_mode = DocMode::kRandomText;
};

// A twig read off `doc`, so it has at least one embedding: a random
// node, then up to `size - 1` more, each a child (P-C edge) or, with
// probability 0.3, any proper descendant (A-D edge) of a node already
// taken. Attributes are "q0".."q{k-1}".
Twig SampledTwig(Rng* rng, const XmlDocument& doc, size_t size) {
  TwigBuilder b;
  auto tag_of = [&](NodeId x) {
    return doc.tag_dict().Decode(doc.node(x).tag);
  };
  std::vector<NodeId> taken = {
      static_cast<NodeId>(rng->NextBounded(doc.num_nodes()))};
  b.AddRoot(tag_of(taken[0]), "q0");
  for (size_t attempt = 0; attempt < 4 * size && taken.size() < size;
       ++attempt) {
    const size_t parent = rng->NextBounded(taken.size());
    const XmlNode& x = doc.node(taken[parent]);
    if (x.first_child == kNullNode) continue;
    NodeId pick;
    TwigAxis axis = TwigAxis::kChild;
    if (rng->NextBernoulli(0.3)) {
      axis = TwigAxis::kDescendant;
      pick = taken[parent] + 1 +
             static_cast<NodeId>(rng->NextBounded(
                 static_cast<uint64_t>(x.subtree_end - taken[parent])));
    } else {
      std::vector<NodeId> children;
      for (NodeId c = x.first_child; c != kNullNode;
           c = doc.node(c).next_sibling) {
        children.push_back(c);
      }
      pick = children[rng->NextBounded(children.size())];
    }
    b.AddChild(static_cast<TwigNodeId>(parent), axis, tag_of(pick),
               "q" + std::to_string(taken.size()));
    taken.push_back(pick);
  }
  auto twig = b.Finish();
  return *std::move(twig);
}

// A random expansion order that CheckAttributeOrder accepts: each step
// draws among the attributes whose predecessors on every decomposed
// twig path are already placed. Every such order must give the same
// answer; only intermediate sizes depend on it.
std::vector<std::string> RandomAttributeOrder(Rng* rng,
                                              const MultiModelQuery& q) {
  std::map<std::string, std::set<std::string>> before;
  for (const auto& ti : q.twigs) {
    auto decomposition = DecomposeTwig(ti.twig);
    EXPECT_TRUE(decomposition.ok());
    if (!decomposition.ok()) return {};
    for (const auto& path : decomposition->paths) {
      for (size_t i = 1; i < path.attributes.size(); ++i) {
        before[path.attributes[i]].insert(path.attributes[i - 1]);
      }
    }
  }
  std::vector<std::string> pending = QueryAttributes(q);
  std::set<std::string> placed;
  std::vector<std::string> order;
  while (!pending.empty()) {
    std::vector<size_t> ready;
    for (size_t i = 0; i < pending.size(); ++i) {
      const std::set<std::string>& needs = before[pending[i]];
      if (std::all_of(needs.begin(), needs.end(), [&](const std::string& a) {
            return placed.count(a) != 0;
          })) {
        ready.push_back(i);
      }
    }
    const size_t pick = ready[rng->NextBounded(ready.size())];
    placed.insert(pending[pick]);
    order.push_back(pending[pick]);
    pending.erase(pending.begin() + static_cast<std::ptrdiff_t>(pick));
  }
  return order;
}

// What one differential instance showed, for the coverage checks below.
struct DiffOutcome {
  bool certified = false;   ///< the twig was certified
  bool branching = false;   ///< ... and has a node with two children
  size_t rows = 0;          ///< output rows
  int64_t shards = 0;       ///< gj.shards of the 4-shard run
};

// The counters Lemma 3.5 bounds (bindings per level and their total and
// maximum) plus the output count.
std::map<std::string, int64_t> BindingCounters(const Metrics& m) {
  std::map<std::string, int64_t> out;
  for (const auto& [name, value] : m.counters()) {
    if (name.rfind("gj.level", 0) == 0 || name == "gj.total_intermediate" ||
        name == "gj.max_intermediate" || name == "gj.output") {
      out[name] = value;
    }
  }
  return out;
}

// The sharding axis: at 4 shards on one thread the answer must be
// byte-identical (same schema, rows and row order) to the run at
// default settings, count the same bindings and output, and make no
// fewer seeks (each shard's lower-bound seek adds some).
void ExpectAxesByteIdentical(const MultiModelQuery& q,
                             const PlanSettings& opts, DiffOutcome* outcome) {
  Metrics reference_metrics;
  EngineServices reference_services;
  reference_services.metrics = &reference_metrics;
  auto reference = ExecuteXJoin(q, opts, reference_services);
  ASSERT_TRUE(reference.ok()) << reference.status().ToString();
  PlanSettings sharded = opts;
  sharded.num_threads = 1;
  sharded.num_shards = 4;
  Metrics metrics;
  EngineServices services;
  services.metrics = &metrics;
  auto result = ExecuteXJoin(q, sharded, services);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result->schema().attributes(), reference->schema().attributes());
  EXPECT_EQ(result->ToTuples(), reference->ToTuples());
  outcome->shards = metrics.Get("gj.shards");
  EXPECT_EQ(BindingCounters(metrics), BindingCounters(reference_metrics));
  EXPECT_GE(metrics.Get("gj.seeks"), reference_metrics.Get("gj.seeks"));
}

// Runs one differential instance. Beyond the reference answer, a
// certified plan (whose final validation ExecutePlan skips) must return
// only rows that ExistsEmbedding accepts.
void RunDifferential(const DiffParam& param, DiffOutcome* outcome) {
  Rng rng(20000 + static_cast<uint64_t>(param.seed));
  std::vector<std::string> tags = {"a", "b", "c"};
  const size_t num_nodes =
      2 + rng.NextBounded(param.doc_mode == DocMode::kRandomText ? 25 : 60);
  std::unique_ptr<XmlDocument> doc;
  switch (param.doc_mode) {
    case DocMode::kRandomText:
    case DocMode::kNodeIdValues:
      doc = testing::RandomDocument(&rng, num_nodes, tags, 3);
      break;
    case DocMode::kNoText:
      doc = testing::RandomDocument(&rng, num_nodes, tags, 3, 0.0);
      break;
    case DocMode::kLeafText:
      doc = testing::RandomDocument(&rng, num_nodes, tags, 3, 0.8,
                                    /*leaf_text_only=*/true);
      break;
  }
  auto dict = std::make_unique<Dictionary>();
  NodeIndex index = NodeIndex::Build(doc.get(), dict.get(),
                                     param.doc_mode == DocMode::kNodeIdValues
                                         ? ValuePolicy::kNodeIdAlways
                                         : ValuePolicy::kTextOrNodeId);
  const size_t twig_size = 1 + rng.NextBounded(4);
  Twig twig = param.doc_mode == DocMode::kRandomText
                  ? testing::RandomTwig(&rng, twig_size, tags)
                  : SampledTwig(&rng, *doc, twig_size + 1);

  // 0-2 relations over a random subset of twig attributes (+ maybe one
  // fresh attribute), values from the document's value pool.
  std::vector<std::string> twig_attrs = twig.attributes();
  std::vector<TwigMatch> matches;
  if (param.doc_mode != DocMode::kRandomText) {
    matches = MatchTwigNaive(*doc, twig);
  }
  size_t num_rels = rng.NextBounded(3);
  std::vector<Relation> rels;
  for (size_t i = 0; i < num_rels; ++i) {
    std::vector<std::string> attrs;
    for (const auto& a : twig_attrs) {
      if (rng.NextBernoulli(0.5)) attrs.push_back(a);
    }
    if (rng.NextBernoulli(0.3)) attrs.push_back("extra" + std::to_string(i));
    if (attrs.empty()) attrs.push_back(twig_attrs[0]);
    const size_t rows = 3 + rng.NextBounded(15);
    if (param.doc_mode == DocMode::kRandomText) {
      rels.push_back(testing::RandomRelation(&rng, dict.get(), attrs, rows, 3));
      continue;
    }
    // Half of the rows copy the values of a random twig match, the rest
    // take random nodes with the attribute's tag (any node for a fresh
    // attribute).
    Relation rel(*Schema::Make(attrs));
    Tuple row(attrs.size());
    for (size_t r = 0; r < rows; ++r) {
      const TwigMatch* match =
          !matches.empty() && rng.NextBernoulli(0.5)
              ? &matches[rng.NextBounded(matches.size())]
              : nullptr;
      for (size_t c = 0; c < attrs.size(); ++c) {
        const TwigNodeId q = twig.NodeByAttribute(attrs[c]);
        NodeId node = static_cast<NodeId>(rng.NextBounded(num_nodes));
        if (q != kNullTwigNode && match != nullptr) {
          node = (*match)[static_cast<size_t>(q)];
        } else if (q != kNullTwigNode) {
          const std::vector<NodeId>& pool =
              index.NodesByTag(doc->LookupTag(twig.node(q).tag));
          if (!pool.empty()) node = pool[rng.NextBounded(pool.size())];
        }
        row[c] = index.ValueOf(node);
      }
      rel.AppendRow(row);
    }
    rels.push_back(std::move(rel));
  }

  MultiModelQuery q;
  for (size_t i = 0; i < rels.size(); ++i) {
    q.relations.push_back({"R" + std::to_string(i), &rels[i]});
  }
  q.twigs.push_back(TwigInput{twig, &index});

  PlanSettings opts;
  if (param.random_order) opts.attribute_order = RandomAttributeOrder(&rng, q);
  ExpectSameAnswer(q, opts);
  ExpectAxesByteIdentical(q, opts, outcome);
  if (param.doc_mode == DocMode::kRandomText) return;

  auto plan = PrepareXJoin(q, opts);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  auto result = ExecutePlan(**plan, EngineServices{});
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const XJoinPlan::TwigExec& exec = (*plan)->twigs[0];
  outcome->certified = exec.certified;
  outcome->rows = result->num_rows();
  for (size_t n = 0; n < twig.num_nodes(); ++n) {
    const TwigNode& node = twig.node(static_cast<TwigNodeId>(n));
    outcome->branching = outcome->branching || node.children.size() >= 2;
  }
  if (!exec.certified) return;
  ValidationScratch scratch;
  std::vector<int64_t> values(twig.num_nodes());
  for (size_t r = 0; r < result->num_rows(); ++r) {
    for (size_t n = 0; n < twig.num_nodes(); ++n) {
      const int col = result->schema().IndexOf(twig_attrs[n]);
      ASSERT_GE(col, 0);
      values[n] = result->at(r, static_cast<size_t>(col));
    }
    EXPECT_TRUE(exec.validator.ExistsEmbedding(values, &scratch))
        << "certified twig " << twig.ToString() << " output row " << r
        << " has no embedding";
  }
}

class XJoinDifferential : public ::testing::TestWithParam<DiffParam> {};

TEST_P(XJoinDifferential, MatchesReference) {
  DiffOutcome outcome;
  RunDifferential(GetParam(), &outcome);
}

// Cross-twig joins: two random twigs over two random documents, the
// second twig's root attribute aliased to a shared name so the twigs
// value-join directly, plus an optional bridging relation.
class CrossTwigDifferential : public ::testing::TestWithParam<int> {};

TEST_P(CrossTwigDifferential, MatchesReference) {
  Rng rng(40000 + static_cast<uint64_t>(GetParam()));
  std::vector<std::string> tags = {"a", "b", "c"};
  auto doc1 = testing::RandomDocument(&rng, 2 + rng.NextBounded(20), tags, 3);
  auto doc2 = testing::RandomDocument(&rng, 2 + rng.NextBounded(20), tags, 3);
  auto dict = std::make_unique<Dictionary>();
  NodeIndex index1 = NodeIndex::Build(doc1.get(), dict.get());
  NodeIndex index2 = NodeIndex::Build(doc2.get(), dict.get());

  Twig twig1 = testing::RandomTwig(&rng, 1 + rng.NextBounded(3), tags);
  // Second twig: leaf attribute renamed to match one of twig1's
  // attributes, creating the cross-document join.
  TwigBuilder tb;
  std::string shared =
      twig1.attributes()[rng.NextBounded(twig1.num_nodes())];
  TwigNodeId root = tb.AddRoot(tags[rng.NextBounded(tags.size())], "p0");
  tb.AddChild(root,
              rng.NextBernoulli(0.4) ? TwigAxis::kDescendant : TwigAxis::kChild,
              tags[rng.NextBounded(tags.size())], shared);
  auto twig2 = tb.Finish();
  ASSERT_TRUE(twig2.ok());

  Relation bridge = testing::RandomRelation(
      &rng, dict.get(), {twig1.attributes()[0], "p0"}, 10, 3);

  MultiModelQuery q;
  q.relations.push_back({"bridge", &bridge});
  q.twigs.push_back(TwigInput{twig1, &index1});
  q.twigs.push_back(TwigInput{*twig2, &index2});
  ExpectSameAnswer(q, PlanSettings{});
}

INSTANTIATE_TEST_SUITE_P(RandomInstances, CrossTwigDifferential,
                         ::testing::Range(0, 30));

// The instances of the certification-friendly document modes: 25 seeds
// per mode, every third one with a random attribute order.
std::vector<DiffParam> CertifyingDiffParams() {
  std::vector<DiffParam> params;
  int base = 300;
  for (DocMode mode :
       {DocMode::kNoText, DocMode::kLeafText, DocMode::kNodeIdValues}) {
    for (int seed = 0; seed < 25; ++seed) {
      params.push_back({base + seed, seed % 3 == 1, mode});
    }
    base += 100;
  }
  return params;
}

std::vector<DiffParam> MakeDiffParams() {
  std::vector<DiffParam> params;
  for (int seed = 0; seed < 40; ++seed) {
    params.push_back({seed, false});
  }
  for (int seed = 0; seed < 15; ++seed) {
    params.push_back({100 + seed, true});
    params.push_back({200 + seed, false});
  }
  for (const DiffParam& p : CertifyingDiffParams()) params.push_back(p);
  return params;
}

INSTANTIATE_TEST_SUITE_P(RandomInstances, XJoinDifferential,
                         ::testing::ValuesIn(MakeDiffParams()));

// The certification axis must not pass vacuously: in each of the new
// document modes, some instance certifies a twig that branches and
// returns rows for the ExistsEmbedding check above.
TEST(XJoinDifferentialCoverage, DocumentModesCertifyBranchingTwigs) {
  std::map<DocMode, int> certified;
  std::map<DocMode, int> certified_branching_with_rows;
  for (const DiffParam& p : CertifyingDiffParams()) {
    DiffOutcome outcome;
    RunDifferential(p, &outcome);
    if (!outcome.certified) continue;
    ++certified[p.doc_mode];
    if (outcome.branching && outcome.rows > 0) {
      ++certified_branching_with_rows[p.doc_mode];
    }
  }
  for (DocMode mode :
       {DocMode::kNoText, DocMode::kLeafText, DocMode::kNodeIdValues}) {
    SCOPED_TRACE("doc mode " + std::to_string(static_cast<int>(mode)));
    EXPECT_GT(certified[mode], 0);
    EXPECT_GT(certified_branching_with_rows[mode], 0);
  }
}

// The sharding axis must not pass vacuously either: some instances
// run more than one level-0 shard, and some fall back to one (a level-0
// lead of 0 or 1 keys).
TEST(XJoinDifferentialCoverage, ShardAxisShardsAndFallsBack) {
  int sharded = 0;
  int fell_back = 0;
  for (const DiffParam& p : MakeDiffParams()) {
    DiffOutcome outcome;
    RunDifferential(p, &outcome);
    if (outcome.shards > 1) ++sharded;
    if (outcome.shards == 1) ++fell_back;
  }
  EXPECT_GT(sharded, 0);
  EXPECT_GT(fell_back, 0);
}

}  // namespace
}  // namespace xjoin
