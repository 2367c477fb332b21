#include <gtest/gtest.h>

#include "common/random.h"
#include "core/database.h"
#include "tests/test_util.h"
#include "xml/document.h"
#include "xml/parser.h"
#include "xml/serialize.h"

namespace xjoin {
namespace {

TEST(XmlBuilderTest, BuildsTreeWithRegions) {
  XmlDocumentBuilder b;
  b.StartElement("a");
  b.StartElement("b");
  b.AddText("  hello ");
  auto st = b.EndElement();
  ASSERT_TRUE(st.ok());
  b.AddLeaf("c", "world");
  ASSERT_TRUE(b.EndElement().ok());
  auto doc = b.Finish();
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(doc->num_nodes(), 3u);
  EXPECT_EQ(doc->TagName(0), "a");
  EXPECT_EQ(doc->node(1).text, "hello");
  EXPECT_EQ(doc->node(2).text, "world");
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
  EXPECT_EQ(doc->node(1).text, "hi");
  EXPECT_TRUE(doc->Validate().ok());
}

TEST(XmlParserTest, AttributesBecomeChildren) {
  auto doc = ParseXml("<a id=\"7\" name='x'><b/></a>");
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  // a, @id, @name, b
  EXPECT_EQ(doc->num_nodes(), 4u);
  EXPECT_EQ(doc->TagName(1), "@id");
  EXPECT_EQ(doc->node(1).text, "7");
  EXPECT_EQ(doc->TagName(2), "@name");
}

TEST(XmlParserTest, EntitiesAndCharRefs) {
  auto doc = ParseXml("<a>x &amp; y &lt;z&gt; &#65;&#x42;</a>");
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  EXPECT_EQ(doc->node(0).text, "x & y <z> AB");
}

TEST(XmlParserTest, CdataAndComments) {
  auto doc = ParseXml("<a><!-- c --><![CDATA[<raw&>]]></a>");
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  EXPECT_EQ(doc->node(0).text, "<raw&>");
}

TEST(XmlParserTest, PrologAndDoctypeSkipped) {
  auto doc = ParseXml(
      "<?xml version=\"1.0\"?><!DOCTYPE a [<!ELEMENT a ANY>]><a>t</a>");
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  EXPECT_EQ(doc->node(0).text, "t");
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
    EXPECT_EQ(doc2->node(id).text, doc->node(id).text);
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
    EXPECT_EQ(doc2->node(id).text, doc->node(id).text);
    EXPECT_EQ(doc2->node(id).subtree_end, doc->node(id).subtree_end);
  }
}

INSTANTIATE_TEST_SUITE_P(RandomInstances, SerializeRoundTripProperty,
                         ::testing::Range(0, 15));

}  // namespace
}  // namespace xjoin
