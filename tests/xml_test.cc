#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/random.h"
#include "common/string_util.h"
#include "core/database.h"
#include "tests/test_util.h"
#include "workload/bookstore.h"
#include "workload/paper_example.h"
#include "workload/xmark.h"
#include "xml/document.h"
#include "xml/parser.h"
#include "xml/serialize.h"

namespace xjoin {
namespace {

TEST(XmlBuilderTest, BuildsTreeWithRegions) {
  XmlDocumentBuilder b;
  b.StartElement("a");
  b.AddText(" head ");
  b.StartElement("b");
  b.AddText("  hello ");
  auto st = b.EndElement();
  ASSERT_TRUE(st.ok());
  b.AddLeaf("c", "world");
  b.AddText("tail");  // after the children's text: chunks still join
  ASSERT_TRUE(b.EndElement().ok());
  auto doc = b.Finish();
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(doc->num_nodes(), 3u);
  EXPECT_EQ(doc->TagName(0), "a");
  EXPECT_EQ(doc->text(0), "headtail");
  EXPECT_EQ(doc->text(1), "hello");
  EXPECT_EQ(doc->text(2), "world");
  EXPECT_EQ(doc->node(0).subtree_end, 2);
  EXPECT_EQ(doc->node(1).level, 1);
  EXPECT_TRUE(doc->IsAncestor(0, 1));
  EXPECT_TRUE(doc->IsParent(0, 2));
  EXPECT_FALSE(doc->IsAncestor(1, 2));
  EXPECT_TRUE(doc->Validate().ok());
}

TEST(XmlBuilderTest, RejectsUnbalanced) {
  XmlDocumentBuilder b;
  b.StartElement("a");
  EXPECT_FALSE(b.Finish().ok());  // still open
}

TEST(XmlBuilderTest, RejectsEmptyAndMultiRoot) {
  {
    XmlDocumentBuilder b;
    EXPECT_FALSE(b.Finish().ok());
  }
  {
    XmlDocumentBuilder b;
    b.AddLeaf("a", "");
    b.AddLeaf("b", "");
    EXPECT_FALSE(b.Finish().ok());
  }
}

TEST(XmlBuilderTest, EndElementAtDepthZeroFails) {
  XmlDocumentBuilder b;
  EXPECT_FALSE(b.EndElement().ok());
}

TEST(XmlDocumentTest, ChildrenAndNodesWithTag) {
  XmlDocumentBuilder b;
  b.StartElement("r");
  b.AddLeaf("x", "1");
  b.AddLeaf("y", "2");
  b.AddLeaf("x", "3");
  ASSERT_TRUE(b.EndElement().ok());
  auto doc = b.Finish();
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(doc->Children(0).size(), 3u);
  int32_t x = doc->LookupTag("x");
  EXPECT_EQ(doc->NodesWithTag(x).size(), 2u);
  EXPECT_EQ(doc->LookupTag("zzz"), -1);
}

TEST(XmlParserTest, ParsesElementsAndText) {
  auto doc = ParseXml("<a><b>hi</b><c/></a>");
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  EXPECT_EQ(doc->num_nodes(), 3u);
  EXPECT_EQ(doc->text(1), "hi");
  EXPECT_TRUE(doc->Validate().ok());
}

TEST(XmlParserTest, AttributesBecomeChildren) {
  auto doc = ParseXml("<a id=\"7\" name='x'><b/></a>");
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  // a, @id, @name, b
  EXPECT_EQ(doc->num_nodes(), 4u);
  EXPECT_EQ(doc->TagName(1), "@id");
  EXPECT_EQ(doc->text(1), "7");
  EXPECT_EQ(doc->TagName(2), "@name");
}

TEST(XmlParserTest, EntitiesAndCharRefs) {
  auto doc = ParseXml("<a>x &amp; y &lt;z&gt; &#65;&#x42;</a>");
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  EXPECT_EQ(doc->text(0), "x & y <z> AB");
}

TEST(XmlParserTest, CdataAndComments) {
  auto doc = ParseXml("<a><!-- c --><![CDATA[<raw&>]]></a>");
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  EXPECT_EQ(doc->text(0), "<raw&>");
}

TEST(XmlParserTest, PrologAndDoctypeSkipped) {
  auto doc = ParseXml(
      "<?xml version=\"1.0\"?><!DOCTYPE a [<!ELEMENT a ANY>]><a>t</a>");
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  EXPECT_EQ(doc->text(0), "t");
}

TEST(XmlParserTest, Errors) {
  EXPECT_FALSE(ParseXml("").ok());
  EXPECT_FALSE(ParseXml("<a>").ok());                 // unterminated
  EXPECT_FALSE(ParseXml("<a></b>").ok());             // mismatch
  EXPECT_FALSE(ParseXml("<a>x</a><b/>").ok());        // two roots
  EXPECT_FALSE(ParseXml("<a attr></a>").ok());        // attr without value
  EXPECT_FALSE(ParseXml("<a>&unknown;</a>").ok());    // bad entity
  EXPECT_FALSE(ParseXml("<a>&#xZZ;</a>").ok());       // bad char ref
  EXPECT_FALSE(ParseXml("plain text").ok());
}

TEST(XmlParserTest, ErrorsCarryPosition) {
  auto r = ParseXml("<a>\n<b></c>\n</a>");
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("2:"), std::string::npos)
      << r.status().ToString();
}

// Each malformed multi-line input fails with its message and the
// 1-based line:column where the parser stopped.
TEST(XmlParserTest, ErrorsPinLineAndColumn) {
  const struct {
    const char* xml;
    const char* message;
  } cases[] = {
      {"<a>\n  <b>x</c>\n</a>",
       "XML 2:10: mismatched close tag </c>, expected </b>"},
      {"<a>\n<b>&ampxxxxxxxxxxxxxx;</b></a>",
       "XML 2:18: unterminated entity reference"},
      {"<a>\n<b>x&am", "XML 2:8: unterminated entity reference"},
      {"<a>\n <b x=\"1<2\"/></a>", "XML 2:9: '<' in attribute value"},
      {"<a>\n\n<b>&#xZZ;</b></a>", "XML 3:10: bad character reference &#xZZ;"},
      {"<a>\n\n<b>&#0;</b></a>", "XML 3:8: bad character reference &#0;"},
      {"<a>\n<b>&nbsp;</b></a>", "XML 2:10: unknown entity &nbsp;"},
      {"<a>\n<!-- never closed\n", "XML 3:1: unterminated comment"},
      // An unterminated CDATA section runs to the end of the input.
      {"<a>\n<![CDATA[ open\n x", "XML 3:3: unterminated element <a>"},
      {"<a>\n<?pi never closed",
       "XML 2:18: unterminated processing instruction"},
      {"<a>\n<b x='1' y></b></a>",
       "XML 2:11: expected '=' after attribute name"},
      {"<a>\n<b>\n</b   x></a>", "XML 3:7: expected '>' in close tag"},
      {"<a>\n<b x='1\n", "XML 3:1: unterminated attribute value"},
      {"<a/>\n<b/>", "XML 2:1: trailing content after root element"},
      {"<!DOCTYPE a [ <!ELEMENT a ANY>\n", "XML 2:1: unterminated DOCTYPE"},
      {"\n  text", "XML 2:3: expected '<'"},
      {"<a>\n<b/>\n", "XML 3:1: unterminated element <a>"},
      {"<a>\n< b/></a>", "XML 2:2: expected name"},
  };
  for (const auto& c : cases) {
    auto parsed = ParseXml(c.xml);
    ASSERT_FALSE(parsed.ok()) << c.xml;
    EXPECT_EQ(parsed.status().code(), StatusCode::kParseError) << c.xml;
    EXPECT_EQ(parsed.status().message(), c.message) << c.xml;
  }
}

// U+001F opens the synthetic values of textless nodes, so text that
// held it could spell one: <b>&#x1F;d:0</b> in a document registered as
// "d" would share the textless root's code. Raw, decimal and hex, in
// character data, CDATA and attribute values, are all parse errors.
TEST(XmlParserTest, RejectsUnitSeparatorInTextAndAttributes) {
  const struct {
    const char* xml;
    const char* message;
  } cases[] = {
      {"<a><b>\x1F" "d:0</b></a>", "XML 1:7: U+001F in text"},
      {"<a><b>&#31;d:0</b></a>", "XML 1:12: U+001F in text (&#31;)"},
      {"<a><b>&#x1F;d:0</b></a>", "XML 1:13: U+001F in text (&#x1F;)"},
      {"<a>\n<b>x\x1F</b></a>", "XML 2:5: U+001F in text"},
      {"<a><![CDATA[x\x1F]]></a>", "XML 1:14: U+001F in text"},
      {"<a b=\"\x1F" "d:0\"/>", "XML 1:7: U+001F in text"},
      {"<a b='&#31;d:0'/>", "XML 1:12: U+001F in text (&#31;)"},
      {"<a b='x&#x1F;'/>", "XML 1:14: U+001F in text (&#x1F;)"},
  };
  for (const auto& c : cases) {
    auto parsed = ParseXml(c.xml);
    ASSERT_FALSE(parsed.ok()) << c.xml;
    EXPECT_EQ(parsed.status().code(), StatusCode::kParseError) << c.xml;
    EXPECT_EQ(parsed.status().message(), c.message) << c.xml;
  }
  // Its neighbours stay plain characters, and markup that never becomes
  // text (comments, processing instructions) may hold it.
  for (const char* xml : {"<a b='&#x1E;'>&#30;\x1E&#x20;</a>",
                          "<a><!--\x1F--><?pi \x1F?>x</a>"}) {
    auto ok = ParseXml(xml);
    EXPECT_TRUE(ok.ok()) << ok.status().ToString();
  }
}

// <a> nested `depth` deep.
std::string NestedXml(size_t depth) {
  std::string xml;
  xml.reserve(depth * 7);
  for (size_t i = 0; i < depth; ++i) xml += "<a>";
  for (size_t i = 0; i < depth; ++i) xml += "</a>";
  return xml;
}

// Deep nesting is refused with a typed error at the cap instead of
// recursing until the stack overflows.
TEST(XmlParserTest, RejectsNestingBeyondTheCap) {
  const std::string deep = NestedXml(1000000);
  auto parsed = ParseXml(deep);
  ASSERT_FALSE(parsed.ok());
  EXPECT_EQ(parsed.status().code(), StatusCode::kParseError);
  // Reported where the first element past the cap starts.
  const std::string where =
      "XML 1:" + std::to_string(3 * kMaxXmlDepth + 1) + ":";
  EXPECT_NE(parsed.status().message().find(where), std::string::npos)
      << parsed.status().ToString();

  MultiModelDatabase db;
  Status registered = db.RegisterDocumentXml("deep", deep);
  EXPECT_EQ(registered.code(), StatusCode::kParseError);

  auto at_cap = ParseXml(NestedXml(static_cast<size_t>(kMaxXmlDepth)));
  ASSERT_TRUE(at_cap.ok()) << at_cap.status().ToString();
  EXPECT_EQ(at_cap->num_nodes(), static_cast<size_t>(kMaxXmlDepth));
  EXPECT_FALSE(ParseXml(NestedXml(kMaxXmlDepth + 1)).ok());
}

TEST(XmlSerializeTest, EscapesSpecials) {
  EXPECT_EQ(EscapeXml("a<b>&\"'"), "a&lt;b&gt;&amp;&quot;&apos;");
}

TEST(XmlSerializeTest, RoundTripsThroughParser) {
  const char* input =
      "<site version=\"1\"><item id=\"i1\"><name>Tom &amp; Co</name>"
      "<empty/></item><note>n1</note></site>";
  auto doc = ParseXml(input);
  ASSERT_TRUE(doc.ok());
  std::string text = WriteXml(*doc);
  auto doc2 = ParseXml(text);
  ASSERT_TRUE(doc2.ok()) << doc2.status().ToString() << "\n" << text;
  ASSERT_EQ(doc2->num_nodes(), doc->num_nodes());
  for (size_t i = 0; i < doc->num_nodes(); ++i) {
    NodeId id = static_cast<NodeId>(i);
    EXPECT_EQ(doc2->TagName(id), doc->TagName(id));
    EXPECT_EQ(doc2->text(id), doc->text(id));
    EXPECT_EQ(doc2->node(id).parent, doc->node(id).parent);
  }
}

// Property: random documents validate, and region encoding agrees with
// the parent-pointer definition of ancestry.
class RegionEncodingProperty : public ::testing::TestWithParam<int> {};

TEST_P(RegionEncodingProperty, ContainmentMatchesParentChains) {
  Rng rng(3000 + static_cast<uint64_t>(GetParam()));
  auto doc = testing::RandomDocument(&rng, 2 + rng.NextBounded(40),
                                     {"a", "b", "c"}, 4);
  ASSERT_TRUE(doc->Validate().ok());
  const size_t n = doc->num_nodes();
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < n; ++j) {
      NodeId a = static_cast<NodeId>(i), d = static_cast<NodeId>(j);
      // Reference: walk parent pointers.
      bool expected = false;
      for (NodeId cur = doc->node(d).parent; cur != kNullNode;
           cur = doc->node(cur).parent) {
        if (cur == a) {
          expected = true;
          break;
        }
      }
      EXPECT_EQ(doc->IsAncestor(a, d), expected) << "a=" << a << " d=" << d;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(RandomInstances, RegionEncodingProperty,
                         ::testing::Range(0, 15));

// Property: serialize-then-parse preserves random documents.
class SerializeRoundTripProperty : public ::testing::TestWithParam<int> {};

TEST_P(SerializeRoundTripProperty, PreservesStructure) {
  Rng rng(4000 + static_cast<uint64_t>(GetParam()));
  auto doc = testing::RandomDocument(&rng, 2 + rng.NextBounded(30),
                                     {"x", "y", "z"}, 5);
  std::string text = WriteXml(*doc);
  auto doc2 = ParseXml(text);
  ASSERT_TRUE(doc2.ok()) << text;
  ASSERT_EQ(doc2->num_nodes(), doc->num_nodes());
  for (size_t i = 0; i < doc->num_nodes(); ++i) {
    NodeId id = static_cast<NodeId>(i);
    EXPECT_EQ(doc2->TagName(id), doc->TagName(id));
    EXPECT_EQ(doc2->text(id), doc->text(id));
    EXPECT_EQ(doc2->node(id).subtree_end, doc->node(id).subtree_end);
  }
}

INSTANTIATE_TEST_SUITE_P(RandomInstances, SerializeRoundTripProperty,
                         ::testing::Range(0, 15));

// Node by node: tag name, parent, level, subtree end and text.
void ExpectSameDocument(const XmlDocument& got, const XmlDocument& want) {
  ASSERT_EQ(got.num_nodes(), want.num_nodes());
  for (size_t i = 0; i < want.num_nodes(); ++i) {
    const NodeId id = static_cast<NodeId>(i);
    EXPECT_EQ(got.TagName(id), want.TagName(id)) << "node " << i;
    EXPECT_EQ(got.node(id).parent, want.node(id).parent) << "node " << i;
    EXPECT_EQ(got.node(id).level, want.node(id).level) << "node " << i;
    EXPECT_EQ(got.node(id).subtree_end, want.node(id).subtree_end)
        << "node " << i;
    EXPECT_EQ(got.text(id), want.text(id)) << "node " << i;
  }
}

// ParseXml(WriteXml(doc)) gives `doc` back, indented or not.
void ExpectRoundTrip(const XmlDocument& doc) {
  for (const bool indent : {true, false}) {
    XmlWriteOptions options;
    options.indent = indent;
    const std::string text = WriteXml(doc, options);
    auto reparsed = ParseXml(text);
    ASSERT_TRUE(reparsed.ok()) << reparsed.status().ToString();
    ExpectSameDocument(*reparsed, doc);
  }
}

TEST(XmlRoundTripTest, GeneratedWorkloadDocuments) {
  BookstoreOptions book_options;
  book_options.num_orders = 400;
  book_options.num_invoices = 40;
  ExpectRoundTrip(*MakeBookstore(book_options).doc);
  XMarkOptions xmark_options;
  xmark_options.num_items = 300;
  xmark_options.num_persons = 200;
  ExpectRoundTrip(*MakeXMark(xmark_options).doc);
  ExpectRoundTrip(
      *MakePaperInstance(6, PaperSchema::kExample34, PaperDataMode::kRandom)
           .doc);
}

// Direct character data is concatenated across child elements, then
// trimmed as a whole.
TEST(XmlParserTest, MixedContentTextConcatenatesThenTrims) {
  auto doc = ParseXml("<a> x <b/> y </a>");
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  EXPECT_EQ(doc->text(0), "x  y");
  EXPECT_EQ(doc->text(1), "");
}

// One node the generated text must parse to.
struct ExpectedNode {
  std::string tag;
  NodeId parent;
  std::string text;
};

// Random XML text covering attributes, entity and character references,
// CDATA, comments, processing instructions, mixed content and
// whitespace-only runs, with the nodes it must parse to in preorder.
class RandomXmlText {
 public:
  explicit RandomXmlText(uint64_t seed) : rng_(seed) {
    Element(kNullNode, 0);
  }

  const std::string& xml() const { return xml_; }
  const std::vector<ExpectedNode>& nodes() const { return nodes_; }

 private:
  // Appends a random reference to xml_ and its decoded text to `text`.
  void Reference(std::string* text) {
    static const char* const kRefs[][2] = {
        {"&amp;", "&"},         {"&lt;", "<"},
        {"&gt;", ">"},          {"&quot;", "\""},
        {"&apos;", "'"},        {"&#65;", "A"},
        {"&#x42;", "B"},        {"&#32;", " "},
        {"&#233;", "\xC3\xA9"}, {"&#x20AC;", "\xE2\x82\xAC"},
        {"&#x1F600;", "\xF0\x9F\x98\x80"}};
    const auto& ref = kRefs[rng_.NextBounded(std::size(kRefs))];
    xml_ += ref[0];
    *text += ref[1];
  }

  std::string Word() {
    static const char* const kWords[] = {"alpha", "b", "c d", "x-1", "9"};
    return kWords[rng_.NextBounded(std::size(kWords))];
  }

  void Element(NodeId parent, int depth) {
    static const char* const kTags[] = {"a", "b", "item", "x.y", "_z"};
    const std::string tag = kTags[rng_.NextBounded(std::size(kTags))];
    const NodeId id = static_cast<NodeId>(nodes_.size());
    nodes_.push_back(ExpectedNode{tag, parent, ""});
    xml_ += "<" + tag;
    const uint64_t num_attrs = rng_.NextBounded(3);
    for (uint64_t k = 0; k < num_attrs; ++k) {
      xml_ += " k" + std::to_string(k);
      xml_ += rng_.NextBernoulli(0.5) ? "=" : " = ";
      const char quote = rng_.NextBernoulli(0.5) ? '"' : '\'';
      xml_ += quote;
      std::string value;
      for (uint64_t piece = rng_.NextBounded(4); piece > 0; --piece) {
        if (rng_.NextBernoulli(0.3)) {
          Reference(&value);
        } else {
          const std::string word =
              (rng_.NextBernoulli(0.3) ? " " : "") + Word();
          xml_ += word;
          value += word;
        }
      }
      xml_ += quote;
      nodes_.push_back(ExpectedNode{"@k" + std::to_string(k), id,
                                    std::string(TrimWhitespace(value))});
    }
    if (depth >= 4 || rng_.NextBernoulli(0.2)) {
      xml_ += "/>";
      return;
    }
    xml_ += ">";
    std::string text;
    for (uint64_t item = rng_.NextBounded(7); item > 0; --item) {
      switch (rng_.NextBounded(7)) {
        case 0: {
          const std::string word = Word();
          xml_ += word;
          text += word;
          break;
        }
        case 1: {
          static const char* const kSpace[] = {" ", "\n  ", "\t", "\r\n"};
          const std::string space = kSpace[rng_.NextBounded(std::size(kSpace))];
          xml_ += space;
          text += space;
          break;
        }
        case 2:
          Reference(&text);
          break;
        case 3: {
          const std::string raw = rng_.NextBernoulli(0.5) ? "<raw & ]>" : " ";
          xml_ += "<![CDATA[" + raw + "]]>";
          text += raw;
          break;
        }
        case 4:
          xml_ += "<!-- a <comment> & -->";
          break;
        case 5:
          xml_ += "<?pi data?>";
          break;
        default:
          Element(id, depth + 1);
      }
    }
    xml_ += "</" + tag + ">";
    nodes_[static_cast<size_t>(id)].text = std::string(TrimWhitespace(text));
  }

  Rng rng_;
  std::string xml_;
  std::vector<ExpectedNode> nodes_;
};

class RandomXmlTextProperty : public ::testing::TestWithParam<int> {};

// Each generated text parses to its expected nodes, and the parsed
// document survives a write and re-parse.
TEST_P(RandomXmlTextProperty, ParsesToExpectedNodesAndRoundTrips) {
  const RandomXmlText generated(5000 + static_cast<uint64_t>(GetParam()));
  auto doc = ParseXml(generated.xml());
  ASSERT_TRUE(doc.ok()) << doc.status().ToString() << "\n" << generated.xml();
  ASSERT_TRUE(doc->Validate().ok());
  const std::vector<ExpectedNode>& want = generated.nodes();
  ASSERT_EQ(doc->num_nodes(), want.size()) << generated.xml();
  for (size_t i = 0; i < want.size(); ++i) {
    const NodeId id = static_cast<NodeId>(i);
    EXPECT_EQ(doc->TagName(id), want[i].tag) << "node " << i;
    EXPECT_EQ(doc->node(id).parent, want[i].parent) << "node " << i;
    EXPECT_EQ(doc->text(id), want[i].text) << "node " << i << "\n"
                                           << generated.xml();
  }
  ExpectRoundTrip(*doc);
}

INSTANTIATE_TEST_SUITE_P(RandomInstances, RandomXmlTextProperty,
                         ::testing::Range(0, 40));

}  // namespace
}  // namespace xjoin
