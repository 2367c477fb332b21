#include <gtest/gtest.h>

#include <algorithm>

#include "common/random.h"
#include "tests/test_util.h"
#include "xml/node_index.h"
#include "xml/parser.h"

namespace xjoin {
namespace {

TEST(NodeIndexTest, TextValuesShareDictionaryWithRelationalSide) {
  auto doc = ParseXml("<r><a>apple</a><b>apple</b><c/></r>");
  ASSERT_TRUE(doc.ok());
  Dictionary dict;
  int64_t relational_apple = dict.Intern("apple");
  NodeIndex index = NodeIndex::Build(&*doc, &dict);
  int32_t a = doc->LookupTag("a");
  int32_t b_tag = doc->LookupTag("b");
  NodeId a_node = index.NodesByTag(a)[0];
  NodeId b_node = index.NodesByTag(b_tag)[0];
  EXPECT_EQ(index.ValueOf(a_node), relational_apple);
  EXPECT_EQ(index.ValueOf(b_node), relational_apple);
}

TEST(NodeIndexTest, TextlessNodesGetUniqueSyntheticValues) {
  auto doc = ParseXml("<r><c/><c/></r>");
  ASSERT_TRUE(doc.ok());
  Dictionary dict;
  NodeIndex index = NodeIndex::Build(&*doc, &dict);
  auto nodes = index.NodesByTag(doc->LookupTag("c"));
  ASSERT_EQ(nodes.size(), 2u);
  EXPECT_NE(index.ValueOf(nodes[0]), index.ValueOf(nodes[1]));
  // Synthetic values cannot collide with any parseable text.
  EXPECT_EQ(dict.Decode(index.ValueOf(nodes[0]))[0], '\x1F');
}

TEST(NodeIndexTest, NodeIdAlwaysPolicyIgnoresText) {
  auto doc = ParseXml("<r><a>same</a><a>same</a></r>");
  ASSERT_TRUE(doc.ok());
  Dictionary dict;
  NodeIndex index = NodeIndex::Build(&*doc, &dict, ValuePolicy::kNodeIdAlways);
  auto nodes = index.NodesByTag(doc->LookupTag("a"));
  EXPECT_NE(index.ValueOf(nodes[0]), index.ValueOf(nodes[1]));
}

TEST(NodeIndexTest, ValueSortedNodesIsSorted) {
  auto doc = ParseXml("<r><a>b</a><a>a</a><a>c</a><a>a</a></r>");
  ASSERT_TRUE(doc.ok());
  Dictionary dict;
  NodeIndex index = NodeIndex::Build(&*doc, &dict);
  const auto& list = index.ValueSortedNodes(doc->LookupTag("a"));
  ASSERT_EQ(list.size(), 4u);
  for (size_t i = 1; i < list.size(); ++i) {
    EXPECT_TRUE(list[i - 1].value < list[i].value ||
                (list[i - 1].value == list[i].value &&
                 list[i - 1].node < list[i].node));
  }
}

TEST(NodeIndexTest, NodesByTagValue) {
  auto doc = ParseXml("<r><a>x</a><a>y</a><a>x</a></r>");
  ASSERT_TRUE(doc.ok());
  Dictionary dict;
  NodeIndex index = NodeIndex::Build(&*doc, &dict);
  int64_t x = dict.Lookup("x");
  ValueNodeSpan nodes = index.NodesByTagValue(doc->LookupTag("a"), x);
  ASSERT_EQ(nodes.size(), 2u);
  // The slice is borrowed from the value-sorted list, ascending by node.
  const auto& list = index.ValueSortedNodes(doc->LookupTag("a"));
  EXPECT_GE(nodes.begin(), list.data());
  EXPECT_LE(nodes.end(), list.data() + list.size());
  EXPECT_EQ(nodes.begin()[0].value, x);
  EXPECT_EQ(nodes.begin()[1].value, x);
  EXPECT_LT(nodes.begin()[0].node, nodes.begin()[1].node);
  EXPECT_TRUE(index.NodesByTagValue(doc->LookupTag("a"), 999999).empty());
  EXPECT_TRUE(index.NodesByTagValue(-1, x).empty());
}

TEST(NodeIndexTest, UnknownTagYieldsEmpty) {
  auto doc = ParseXml("<r/>");
  ASSERT_TRUE(doc.ok());
  Dictionary dict;
  NodeIndex index = NodeIndex::Build(&*doc, &dict);
  EXPECT_TRUE(index.NodesByTag(-1).empty());
  EXPECT_TRUE(index.ValueSortedNodes(12345).empty());
}

TEST(NodeIndexTest, ValuesUniqueFlagsTagsWhoseValuesNameOneNode) {
  auto doc = ParseXml("<r><a>1<b>x</b></a><a>1<b>y</b></a><c><b/></c></r>");
  ASSERT_TRUE(doc.ok());
  const int32_t a = doc->LookupTag("a");
  const int32_t b = doc->LookupTag("b");
  const int32_t c = doc->LookupTag("c");
  Dictionary dict;
  NodeIndex index = NodeIndex::Build(&*doc, &dict);
  EXPECT_FALSE(index.ValuesUnique(a));  // both <a> carry "1"
  EXPECT_TRUE(index.ValuesUnique(b));   // x, y and one synthetic value
  EXPECT_TRUE(index.ValuesUnique(c));   // element children only
  EXPECT_TRUE(index.ValuesUnique(doc->LookupTag("r")));
  EXPECT_TRUE(index.ValuesUnique(-1));
  EXPECT_TRUE(index.ValuesUnique(12345));

  Dictionary id_dict;
  NodeIndex by_id =
      NodeIndex::Build(&*doc, &id_dict, ValuePolicy::kNodeIdAlways);
  for (int64_t tag = 0; tag < doc->tag_dict().size(); ++tag) {
    EXPECT_TRUE(by_id.ValuesUnique(static_cast<int32_t>(tag))) << tag;
  }
}

// Property: ChildValues and DescendantValues agree with brute force.
class NodeIndexProperty : public ::testing::TestWithParam<int> {};

TEST_P(NodeIndexProperty, ChildAndDescendantValuesMatchBruteForce) {
  Rng rng(5000 + static_cast<uint64_t>(GetParam()));
  auto doc = testing::RandomDocument(&rng, 2 + rng.NextBounded(40),
                                     {"a", "b", "c"}, 4);
  Dictionary dict;
  NodeIndex index = NodeIndex::Build(doc.get(), &dict);
  for (int32_t tag = 0; tag < doc->tag_dict().size(); ++tag) {
    for (size_t i = 0; i < doc->num_nodes(); ++i) {
      NodeId id = static_cast<NodeId>(i);

      auto fast_children = index.ChildValues(id, tag);
      std::vector<ValueNode> slow_children;
      for (NodeId c : doc->Children(id)) {
        if (doc->node(c).tag == tag) {
          slow_children.push_back(ValueNode{index.ValueOf(c), c});
        }
      }
      std::sort(slow_children.begin(), slow_children.end(),
                [](const ValueNode& x, const ValueNode& y) {
                  return x.value != y.value ? x.value < y.value
                                            : x.node < y.node;
                });
      EXPECT_EQ(fast_children, slow_children);

      auto fast_desc = index.DescendantValues(id, tag);
      std::vector<ValueNode> slow_desc;
      for (size_t j = 0; j < doc->num_nodes(); ++j) {
        NodeId d = static_cast<NodeId>(j);
        if (doc->node(d).tag == tag && doc->IsAncestor(id, d)) {
          slow_desc.push_back(ValueNode{index.ValueOf(d), d});
        }
      }
      std::sort(slow_desc.begin(), slow_desc.end(),
                [](const ValueNode& x, const ValueNode& y) {
                  return x.value != y.value ? x.value < y.value
                                            : x.node < y.node;
                });
      EXPECT_EQ(fast_desc, slow_desc);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(RandomInstances, NodeIndexProperty,
                         ::testing::Range(0, 10));

}  // namespace
}  // namespace xjoin
