#include <gtest/gtest.h>

#include <string>

#include "common/random.h"
#include "xml/parser.h"
#include "xml/twig.h"

namespace xjoin {
namespace {

TEST(TwigParseTest, LinearPath) {
  auto t = Twig::Parse("a/b//c");
  ASSERT_TRUE(t.ok()) << t.status().ToString();
  ASSERT_EQ(t->num_nodes(), 3u);
  EXPECT_EQ(t->node(0).tag, "a");
  EXPECT_EQ(t->node(1).axis, TwigAxis::kChild);
  EXPECT_EQ(t->node(2).axis, TwigAxis::kDescendant);
  EXPECT_EQ(t->node(2).parent, 1);
}

TEST(TwigParseTest, Branches) {
  auto t = Twig::Parse("a[b,//c/e]/d");
  ASSERT_TRUE(t.ok()) << t.status().ToString();
  ASSERT_EQ(t->num_nodes(), 5u);
  // preorder: a, b, c, e, d
  EXPECT_EQ(t->node(1).tag, "b");
  EXPECT_EQ(t->node(2).tag, "c");
  EXPECT_EQ(t->node(2).axis, TwigAxis::kDescendant);
  EXPECT_EQ(t->node(3).tag, "e");
  EXPECT_EQ(t->node(3).parent, 2);
  EXPECT_EQ(t->node(4).tag, "d");
  EXPECT_EQ(t->node(4).parent, 0);
}

TEST(TwigParseTest, LeadingSeparatorsIgnored) {
  EXPECT_TRUE(Twig::Parse("/a/b").ok());
  EXPECT_TRUE(Twig::Parse("//a/b").ok());
}

TEST(TwigParseTest, AliasesAllowRepeatedTags) {
  EXPECT_FALSE(Twig::Parse("a/a").ok());  // duplicate attribute
  auto t = Twig::Parse("a/a=a2");
  ASSERT_TRUE(t.ok());
  EXPECT_EQ(t->node(1).tag, "a");
  EXPECT_EQ(t->node(1).attribute, "a2");
}

TEST(TwigParseTest, Errors) {
  EXPECT_FALSE(Twig::Parse("").ok());
  EXPECT_FALSE(Twig::Parse("a[").ok());
  EXPECT_FALSE(Twig::Parse("a[b").ok());
  EXPECT_FALSE(Twig::Parse("a]b").ok());
  EXPECT_FALSE(Twig::Parse("a/b extra garbage ]").ok());
  EXPECT_FALSE(Twig::Parse("a//").ok());
  EXPECT_FALSE(Twig::Parse("[a]").ok());
}

// How ChainTwig nests each step under the previous one.
enum class Nest { kBrackets, kSlashes, kMixed };

// A twig that is one chain of `depth` nodes t0, t1, ...: each step is
// nested in a '[' branch (closed at the end), after '/', or, for kMixed,
// alternately after '[' and '//'.
std::string ChainTwig(int depth, Nest nest) {
  std::string text = "t0";
  int open = 0;
  for (int i = 1; i < depth; ++i) {
    if (nest == Nest::kBrackets || (nest == Nest::kMixed && i % 2 == 0)) {
      text += '[';
      ++open;
    } else {
      text += nest == Nest::kMixed ? "//" : "/";
    }
    text += "t" + std::to_string(i);
  }
  text.append(static_cast<size_t>(open), ']');
  return text;
}

// Every twig edge maps to a strictly deeper document node, so a twig
// deeper than any document ParseXml accepts matches nothing. The parser
// refuses it with a typed error, so no recursion over the twig (parsing,
// rendering, decomposing) grows with the input.
TEST(TwigParseTest, DepthCappedAtXmlDepth) {
  for (Nest nest : {Nest::kBrackets, Nest::kSlashes, Nest::kMixed}) {
    SCOPED_TRACE("nest mode " + std::to_string(static_cast<int>(nest)));
    auto at_cap = Twig::Parse(ChainTwig(kMaxXmlDepth, nest));
    ASSERT_TRUE(at_cap.ok()) << at_cap.status().ToString();
    EXPECT_EQ(at_cap->num_nodes(), static_cast<size_t>(kMaxXmlDepth));
    EXPECT_TRUE(Twig::Parse(at_cap->ToString()).ok());
    auto over = Twig::Parse(ChainTwig(kMaxXmlDepth + 1, nest));
    ASSERT_FALSE(over.ok());
    EXPECT_EQ(over.status().code(), StatusCode::kParseError);
  }
  // Hostile depths fail the same way instead of exhausting the stack.
  for (Nest nest : {Nest::kBrackets, Nest::kSlashes}) {
    auto hostile = Twig::Parse(ChainTwig(100000, nest));
    ASSERT_FALSE(hostile.ok());
    EXPECT_EQ(hostile.status().code(), StatusCode::kParseError);
  }
  // The cap is on depth, not size: a wide, shallow twig parses.
  std::string wide = "r[c0";
  for (int i = 1; i < 2 * kMaxXmlDepth; ++i) wide += ",c" + std::to_string(i);
  wide += "]";
  auto shallow = Twig::Parse(wide);
  ASSERT_TRUE(shallow.ok()) << shallow.status().ToString();
  EXPECT_EQ(shallow->num_nodes(), static_cast<size_t>(2 * kMaxXmlDepth + 1));
}

TEST(TwigParseTest, WhitespaceTolerated) {
  auto t = Twig::Parse("a [ b , c ] / d");
  ASSERT_TRUE(t.ok()) << t.status().ToString();
  EXPECT_EQ(t->num_nodes(), 4u);
}

TEST(TwigTest, AttributesAndLookup) {
  auto t = Twig::Parse("a[b]/c");
  ASSERT_TRUE(t.ok());
  EXPECT_EQ(t->attributes(), (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(t->NodeByAttribute("c"), 2);
  EXPECT_EQ(t->NodeByAttribute("zzz"), kNullTwigNode);
}

TEST(TwigTest, LeavesAndPaths) {
  auto t = Twig::Parse("a[b,c/e]/d");
  ASSERT_TRUE(t.ok());
  // preorder: a(0), b(1), c(2), e(3), d(4); leaves: b, e, d
  EXPECT_EQ(t->Leaves(), (std::vector<TwigNodeId>{1, 3, 4}));
  EXPECT_EQ(t->PathFromRoot(3), (std::vector<TwigNodeId>{0, 2, 3}));
  EXPECT_EQ(t->PathFromRoot(0), (std::vector<TwigNodeId>{0}));
}

TEST(TwigTest, HasDescendantEdge) {
  EXPECT_FALSE(Twig::Parse("a/b")->HasDescendantEdge());
  EXPECT_TRUE(Twig::Parse("a//b")->HasDescendantEdge());
}

TEST(TwigTest, ToStringRoundTrips) {
  for (const char* pattern :
       {"a", "a/b", "a//b", "a[b]/c", "a[b,c/e]//d", "a[b,//c]/d=dd",
        "invoice[orderID]/orderLine[ISBN]/price"}) {
    auto t = Twig::Parse(pattern);
    ASSERT_TRUE(t.ok()) << pattern;
    auto t2 = Twig::Parse(t->ToString());
    ASSERT_TRUE(t2.ok()) << t->ToString();
    ASSERT_EQ(t2->num_nodes(), t->num_nodes()) << t->ToString();
    for (size_t i = 0; i < t->num_nodes(); ++i) {
      TwigNodeId id = static_cast<TwigNodeId>(i);
      EXPECT_EQ(t2->node(id).tag, t->node(id).tag);
      EXPECT_EQ(t2->node(id).attribute, t->node(id).attribute);
      EXPECT_EQ(t2->node(id).parent, t->node(id).parent);
      EXPECT_EQ(t2->node(id).axis == TwigAxis::kDescendant,
                t->node(id).axis == TwigAxis::kDescendant)
          << "node " << i << " of " << t->ToString();
    }
  }
}

// Property: random twigs survive ToString -> Parse exactly.
class TwigRoundTripProperty : public ::testing::TestWithParam<int> {};

TEST_P(TwigRoundTripProperty, ToStringParsesBack) {
  Rng rng(70000 + static_cast<uint64_t>(GetParam()));
  std::vector<std::string> tags = {"a", "b", "c", "d"};
  TwigBuilder builder;
  size_t n = 1 + rng.NextBounded(8);
  builder.AddRoot(tags[rng.NextBounded(tags.size())], "q0");
  for (size_t i = 1; i < n; ++i) {
    builder.AddChild(static_cast<TwigNodeId>(rng.NextBounded(i)),
                     rng.NextBernoulli(0.4) ? TwigAxis::kDescendant
                                            : TwigAxis::kChild,
                     tags[rng.NextBounded(tags.size())],
                     "q" + std::to_string(i));
  }
  auto twig = builder.Finish();
  ASSERT_TRUE(twig.ok());
  auto reparsed = Twig::Parse(twig->ToString());
  ASSERT_TRUE(reparsed.ok()) << twig->ToString();
  ASSERT_EQ(reparsed->num_nodes(), twig->num_nodes());
  // Node ids are renumbered to pattern preorder by the parser; compare
  // the trees through the (unique) attribute names instead.
  for (size_t i = 0; i < twig->num_nodes(); ++i) {
    TwigNodeId id = static_cast<TwigNodeId>(i);
    const TwigNode& original = twig->node(id);
    TwigNodeId found = reparsed->NodeByAttribute(original.attribute);
    ASSERT_NE(found, kNullTwigNode) << twig->ToString();
    const TwigNode& copy = reparsed->node(found);
    EXPECT_EQ(copy.tag, original.tag) << twig->ToString();
    if (original.parent == kNullTwigNode) {
      EXPECT_EQ(copy.parent, kNullTwigNode);
    } else {
      ASSERT_NE(copy.parent, kNullTwigNode) << twig->ToString();
      EXPECT_EQ(reparsed->node(copy.parent).attribute,
                twig->node(original.parent).attribute)
          << twig->ToString();
      EXPECT_EQ(static_cast<int>(copy.axis), static_cast<int>(original.axis))
          << twig->ToString();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(RandomInstances, TwigRoundTripProperty,
                         ::testing::Range(0, 40));

TEST(TwigBuilderTest, BuildsPreorder) {
  TwigBuilder b;
  TwigNodeId root = b.AddRoot("a");
  TwigNodeId child = b.AddChild(root, TwigAxis::kDescendant, "b", "bb");
  b.AddChild(child, TwigAxis::kChild, "c");
  auto t = b.Finish();
  ASSERT_TRUE(t.ok());
  EXPECT_EQ(t->node(1).attribute, "bb");
  EXPECT_EQ(t->node(0).children, (std::vector<TwigNodeId>{1}));
}

TEST(TwigValidateTest, CatchesDuplicates) {
  TwigBuilder b;
  TwigNodeId root = b.AddRoot("a", "x");
  b.AddChild(root, TwigAxis::kChild, "b", "x");
  EXPECT_FALSE(b.Finish().ok());
}

}  // namespace
}  // namespace xjoin
