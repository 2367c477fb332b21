#include <gtest/gtest.h>

#include <string>
#include <string_view>

#include "common/string_util.h"
#include "core/database.h"
#include "relational/csv.h"
#include "relational/operators.h"
#include "workload/bookstore.h"
#include "workload/xmark.h"
#include "xml/parser.h"
#include "xml/serialize.h"

namespace xjoin {
namespace {

class DatabaseTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(db_.RegisterRelationCsv("R",
                                        "orderID,userID\n"
                                        "10963,jack\n"
                                        "20134,tom\n"
                                        "35768,bob\n")
                    .ok());
    ASSERT_TRUE(db_.RegisterDocumentXml("invoices", R"(
      <invoices>
        <invoice><orderID>10963</orderID>
          <orderLine><ISBN>978-3-16-1</ISBN><price>30</price></orderLine>
        </invoice>
        <invoice><orderID>20134</orderID>
          <orderLine><ISBN>634-3-12-2</ISBN><price>20</price></orderLine>
        </invoice>
      </invoices>)")
                    .ok());
  }

  MultiModelDatabase db_;
};

TEST_F(DatabaseTest, RegistrationAndLookups) {
  Session session = db_.OpenSession();
  EXPECT_TRUE(session.relation("R").ok());
  EXPECT_FALSE(session.relation("S").ok());
  EXPECT_TRUE(session.document_index("invoices").ok());
  EXPECT_FALSE(session.document_index("other").ok());
  EXPECT_EQ(session.RelationNames(), (std::vector<std::string>{"R"}));
  EXPECT_EQ(session.DocumentNames(), (std::vector<std::string>{"invoices"}));
}

TEST_F(DatabaseTest, DuplicateNamesRejected) {
  EXPECT_FALSE(db_.RegisterRelationCsv("R", "A\n1\n").ok());
  EXPECT_FALSE(db_.RegisterDocumentXml("R", "<a/>").ok());
  EXPECT_FALSE(db_.RegisterDocumentXml("invoices", "<a/>").ok());
}

// A rejected registration or update interns nothing: the name is
// checked before the input is parsed, so the shared dictionary (which
// never shrinks) does not grow.
TEST_F(DatabaseTest, RejectedRegistrationLeavesDictionaryUnchanged) {
  const int64_t size = db_.dictionary().size();
  EXPECT_EQ(db_.RegisterDocumentXml("invoices", "<r><s>one</s><t/></r>")
                .code(),
            StatusCode::kAlreadyExists);
  EXPECT_EQ(db_.dictionary().size(), size);
  EXPECT_EQ(db_.RegisterRelationCsv("invoices", "A,B\nu,v\nw,z\n").code(),
            StatusCode::kAlreadyExists);
  EXPECT_EQ(db_.dictionary().size(), size);
  EXPECT_EQ(db_.UpdateDocumentXml("unknown", "<r><s>three</s></r>").code(),
            StatusCode::kNotFound);
  EXPECT_EQ(db_.dictionary().size(), size);
}

TEST_F(DatabaseTest, Figure1QueryThroughTextInterface) {
  auto result = db_.OpenSession().Query(
      "Q(userID, ISBN, price) := R, "
      "invoices : invoice[orderID]/orderLine[ISBN]/price");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result->num_rows(), 2u);
  const Dictionary& dict = db_.dictionary();
  EXPECT_TRUE(result->ContainsRow(
      {dict.Lookup("jack"), dict.Lookup("978-3-16-1"), dict.Lookup("30")}));
}

TEST_F(DatabaseTest, EnginesAgree) {
  const char* q =
      "Q(userID, ISBN) := R, invoices:invoice[orderID]/orderLine/ISBN";
  QueryOptions baseline;
  baseline.engine = Engine::kBaseline;
  auto a = db_.OpenSession().Query(q);
  auto b = db_.OpenSession().Query(q, baseline);
  ASSERT_TRUE(a.ok() && b.ok());
  auto bp = Project(*b, a->schema().attributes());
  ASSERT_TRUE(bp.ok());
  EXPECT_TRUE(RelationsEqualAsSets(*a, *bp));
}

TEST_F(DatabaseTest, StarHeadAndHeadlessQueries) {
  auto star = db_.OpenSession().Query("Q(*) := R");
  ASSERT_TRUE(star.ok()) << star.status().ToString();
  EXPECT_EQ(star->schema().size(), 2u);
  auto headless = db_.OpenSession().Query("R");
  ASSERT_TRUE(headless.ok());
  EXPECT_EQ(headless->num_rows(), 3u);
}

TEST_F(DatabaseTest, TwigBranchCommasDoNotSplitInputs) {
  auto result = db_.OpenSession().Query(
      "Q(ISBN, price) := invoices:invoice/orderLine[ISBN,price]");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->num_rows(), 2u);
}

TEST_F(DatabaseTest, ParseErrors) {
  Session session = db_.OpenSession();
  EXPECT_FALSE(session.Query("Q(userID := R").ok());  // bad head
  EXPECT_FALSE(session.Query("Q(a) := ").ok());       // no inputs
  EXPECT_FALSE(session.Query("missing").ok());        // unknown relation
  EXPECT_FALSE(session.Query("nope:a/b").ok());       // unknown document
  EXPECT_FALSE(session.Query("invoices:a[").ok());    // bad twig
  EXPECT_FALSE(session.Query("Q(zzz) := R").ok());    // unknown output attr
  EXPECT_FALSE(session.Query("R,,R").ok());           // empty input
}

// A query may name at most kMaxQueryAttributes distinct attributes:
// the widest twig query is accepted and answered, one more attribute
// fails to parse, naming the cap, before any planning.
TEST_F(DatabaseTest, QueryWidthIsCappedBeforePlanning) {
  ASSERT_TRUE(db_.RegisterDocumentXml("doc", "<r><c0>x</c0></r>").ok());
  auto wide_query = [](size_t attributes) {
    std::string text = "Q(*) := doc : r[";  // r plus attributes-1 children
    for (size_t i = 0; i + 1 < attributes; ++i) {
      text += (i > 0 ? ",c" : "c") + std::to_string(i);
    }
    return text + "]";
  };
  Session session = db_.OpenSession();
  auto at_cap = session.Query(wide_query(kMaxQueryAttributes));
  ASSERT_TRUE(at_cap.ok()) << at_cap.status().ToString();
  EXPECT_EQ(at_cap->num_columns(), kMaxQueryAttributes);
  EXPECT_EQ(at_cap->num_rows(), 0u);

  const CacheStats before = db_.cache_stats();
  auto over_cap = session.Query(wide_query(kMaxQueryAttributes + 1));
  ASSERT_FALSE(over_cap.ok());
  EXPECT_EQ(over_cap.status().code(), StatusCode::kParseError);
  EXPECT_NE(over_cap.status().ToString().find("kMaxQueryAttributes=256"),
            std::string::npos)
      << over_cap.status().ToString();
  EXPECT_EQ(db_.cache_stats().plan_misses, before.plan_misses);
}

TEST_F(DatabaseTest, MetricsPlumbing) {
  Metrics m;
  QueryOptions options;
  options.metrics = &m;
  auto result = db_.OpenSession().Query(
      "Q(userID) := R, invoices:invoice/orderID", options);
  ASSERT_TRUE(result.ok());
  EXPECT_GT(m.Get("gj.total_intermediate"), 0);
}

TEST_F(DatabaseTest, ExplainShowsPlan) {
  auto plan = db_.OpenSession().Explain(
      "Q(userID, ISBN, price) := R, "
      "invoices:invoice[orderID]/orderLine[ISBN]/price");
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  EXPECT_NE(plan->find("relation R(orderID, userID)"), std::string::npos);
  EXPECT_NE(plan->find("transform(Sx)"), std::string::npos);
  EXPECT_NE(plan->find("expansion order"), std::string::npos);
  EXPECT_NE(plan->find("worst-case size bound"), std::string::npos);
}

TEST_F(DatabaseTest, TwoDocumentsJoinThroughRelation) {
  ASSERT_TRUE(db_.RegisterDocumentXml("books", R"(
      <books>
        <book><isbn>978-3-16-1</isbn><genre>databases</genre></book>
        <book><isbn>634-3-12-2</isbn><genre>systems</genre></book>
      </books>)")
                  .ok());
  // Two twigs over two documents; ISBN joins them (aliased on the books
  // side so attribute names collide correctly).
  auto result = db_.OpenSession().Query(
      "Q(userID, genre) := R, "
      "invoices:invoice[orderID]/orderLine/ISBN, "
      "books:book[isbn=ISBN]/genre");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const Dictionary& dict = db_.dictionary();
  EXPECT_EQ(result->num_rows(), 2u);
  EXPECT_TRUE(result->ContainsRow(
      {dict.Lookup("jack"), dict.Lookup("databases")}));
  EXPECT_TRUE(result->ContainsRow(
      {dict.Lookup("tom"), dict.Lookup("systems")}));
}

TEST_F(DatabaseTest, NodeIdAlwaysPolicy) {
  ASSERT_TRUE(db_.RegisterDocumentXml("structural", "<a><b>x</b><b>x</b></a>",
                                      ValuePolicy::kNodeIdAlways)
                  .ok());
  auto result = db_.OpenSession().Query("structural:a/b");
  ASSERT_TRUE(result.ok());
  // Two b's with identical text still yield two rows (node identity).
  EXPECT_EQ(result->num_rows(), 2u);
}

// A textless node's value is scoped by its document's name, so the
// roots of two documents with the same shape are different values: the
// twigs below share only attribute `a`, and must not join.
TEST_F(DatabaseTest, TextlessNodesOfTwoDocumentsNeverJoin) {
  ASSERT_TRUE(db_.RegisterDocumentXml("d1", "<a><b>x</b><c/></a>").ok());
  ASSERT_TRUE(db_.RegisterDocumentXml("d2", "<a><b>y</b><c/></a>").ok());
  for (Engine engine : {Engine::kXJoin, Engine::kBaseline}) {
    QueryOptions options;
    options.engine = engine;
    auto result = db_.OpenSession().Query("Q(*) := d1:a[b], d2:a/c", options);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_EQ(result->num_rows(), 0u)
        << (engine == Engine::kXJoin ? "xjoin" : "baseline");
  }

  // The cell prints as "\x1F<document>:<node id>".
  auto root = db_.OpenSession().Query("Q(a) := d1:a");
  ASSERT_TRUE(root.ok()) << root.status().ToString();
  ASSERT_EQ(root->num_rows(), 1u);
  EXPECT_EQ(db_.dictionary().Decode(root->column(0)[0]),
            std::string("\x1F" "d1:0"));

  // Re-ingesting identical XML under the same name reuses every value.
  const int64_t entries = db_.dictionary().size();
  ASSERT_TRUE(db_.UpdateDocumentXml("d1", "<a><b>x</b><c/></a>").ok());
  ASSERT_TRUE(db_.UpdateDocumentXml("d2", "<a><b>y</b><c/></a>").ok());
  EXPECT_EQ(db_.dictionary().size(), entries);
}

// Loading assigns exactly the codes a plain loop of Intern calls gives:
// every CSV's cells row-major, in load order, then each document's node
// values in preorder (text, or the synthetic "\x1F<document>:<id>").
TEST(DatabaseIngestTest, CodesFollowRowMajorCellsThenPreorderNodes) {
  BookstoreOptions book_options;
  book_options.num_orders = 600;
  book_options.num_invoices = 30;
  const BookstoreInstance book = MakeBookstore(book_options);
  XMarkOptions xmark_options;
  xmark_options.num_items = 200;
  xmark_options.num_persons = 120;
  const XMarkInstance xmark = MakeXMark(xmark_options);
  const std::vector<std::pair<std::string, std::string>> csvs = {
      {"R", WriteCsv(*book.orders, *book.dict)},
      {"Cust", WriteCsv(*book.customers, *book.dict)},
      {"ItemCat", WriteCsv(*xmark.item_category, *xmark.dict)}};
  const std::vector<std::pair<std::string, std::string>> docs = {
      {"invoices", WriteXml(*book.doc)}, {"xmark", WriteXml(*xmark.doc)}};

  MultiModelDatabase db;
  for (const auto& [name, text] : csvs) {
    ASSERT_TRUE(db.RegisterRelationCsv(name, text).ok()) << name;
  }
  for (const auto& [name, text] : docs) {
    ASSERT_TRUE(db.RegisterDocumentXml(name, text).ok()) << name;
  }

  Dictionary expected;
  for (const auto& [name, text] : csvs) {
    ASSERT_EQ(text.find('"'), std::string::npos) << name;
    const std::vector<std::string> lines = SplitString(text, '\n');
    for (size_t line = 1; line < lines.size(); ++line) {  // past the header
      if (lines[line].empty()) continue;
      for (const std::string& cell : SplitString(lines[line], ',')) {
        expected.Intern(cell);
      }
    }
  }
  for (const auto& [name, text] : docs) {
    auto doc = ParseXml(text);
    ASSERT_TRUE(doc.ok()) << doc.status().ToString();
    for (size_t i = 0; i < doc->num_nodes(); ++i) {
      const std::string_view value = doc->text(static_cast<NodeId>(i));
      expected.Intern(value.empty() ? "\x1F" + name + ":" + std::to_string(i)
                                    : std::string(value));
    }
  }

  const Dictionary& loaded = db.dictionary();
  ASSERT_EQ(loaded.size(), expected.size());
  for (int64_t code = 0; code < expected.size(); ++code) {
    ASSERT_EQ(loaded.Decode(code), expected.Decode(code)) << "code " << code;
  }
}

}  // namespace
}  // namespace xjoin
