// Shared helpers for the xjoin test suite: deterministic random
// documents, twigs, relations, and reference (brute-force) evaluators
// used for differential testing.
#ifndef XJOIN_TESTS_TEST_UTIL_H_
#define XJOIN_TESTS_TEST_UTIL_H_

#include <memory>
#include <string>
#include <vector>

#include "common/dictionary.h"
#include "common/random.h"
#include "relational/relation.h"
#include "relational/trie_iterator.h"
#include "xml/document.h"
#include "xml/node_index.h"
#include "xml/twig.h"

namespace xjoin::testing {

/// Builds a random tree document: `num_nodes` elements, tags drawn from
/// `tags`, text values drawn from "v0".."v{num_values-1}" (with
/// probability `text_prob`, else no text; with `leaf_text_only`, only
/// leaves may carry text). Shape is a random recursive tree (each new
/// node attaches to a uniformly chosen previous node).
inline std::unique_ptr<XmlDocument> RandomDocument(
    Rng* rng, size_t num_nodes, const std::vector<std::string>& tags,
    size_t num_values, double text_prob = 0.8, bool leaf_text_only = false) {
  // Generate parent links first (node 0 = root), then emit recursively.
  std::vector<size_t> parent(num_nodes, 0);
  for (size_t i = 1; i < num_nodes; ++i) {
    parent[i] = rng->NextBounded(i);
  }
  std::vector<std::vector<size_t>> children(num_nodes);
  for (size_t i = 1; i < num_nodes; ++i) children[parent[i]].push_back(i);

  XmlDocumentBuilder b;
  // Iterative preorder emission.
  struct Frame {
    size_t node;
    size_t next_child;
  };
  std::vector<Frame> stack;
  auto open = [&](size_t node) {
    b.StartElement(node == 0 ? "root" : tags[rng->NextBounded(tags.size())]);
    if (node != 0 && (!leaf_text_only || children[node].empty()) &&
        rng->NextBernoulli(text_prob)) {
      b.AddText("v" + std::to_string(rng->NextBounded(num_values)));
    }
    stack.push_back({node, 0});
  };
  open(0);
  while (!stack.empty()) {
    Frame& top = stack.back();
    if (top.next_child < children[top.node].size()) {
      open(children[top.node][top.next_child++]);
    } else {
      auto st = b.EndElement();
      (void)st;
      stack.pop_back();
    }
  }
  auto doc = b.Finish();
  return std::make_unique<XmlDocument>(*std::move(doc));
}

/// Builds a random twig with `num_nodes` query nodes over `tags`,
/// random axes (descendant with probability `ad_prob`). Attributes are
/// "q0".."q{k-1}" so repeated tags stay legal.
inline Twig RandomTwig(Rng* rng, size_t num_nodes,
                       const std::vector<std::string>& tags,
                       double ad_prob = 0.3) {
  TwigBuilder b;
  b.AddRoot(tags[rng->NextBounded(tags.size())], "q0");
  for (size_t i = 1; i < num_nodes; ++i) {
    TwigNodeId parent = static_cast<TwigNodeId>(rng->NextBounded(i));
    TwigAxis axis = rng->NextBernoulli(ad_prob) ? TwigAxis::kDescendant
                                                : TwigAxis::kChild;
    b.AddChild(parent, axis, tags[rng->NextBounded(tags.size())],
               "q" + std::to_string(i));
  }
  auto twig = b.Finish();
  return *std::move(twig);
}

/// Builds a random relation over `attrs` whose values are drawn from the
/// document value pool "v0".."v{num_values-1}" (interned in `dict`).
inline Relation RandomRelation(Rng* rng, Dictionary* dict,
                               const std::vector<std::string>& attrs,
                               size_t rows, size_t num_values) {
  auto schema = Schema::Make(attrs);
  Relation rel(*schema);
  Tuple row(attrs.size());
  for (size_t r = 0; r < rows; ++r) {
    for (size_t c = 0; c < attrs.size(); ++c) {
      row[c] = dict->Intern("v" + std::to_string(rng->NextBounded(num_values)));
    }
    rel.AppendRow(row);
  }
  return rel;
}

/// Brute-force natural join of arbitrary relations (nested loops),
/// returning distinct tuples over the union of attributes in
/// first-appearance order. Reference implementation for differential
/// tests.
Relation NaiveNaturalJoin(const std::vector<const Relation*>& inputs);

/// Depth-first enumeration of every tuple of a trie through its span
/// protocol, in lexicographic order. The iterator must be at the
/// virtual root and is left there.
inline std::vector<Tuple> EnumerateTrie(TrieIterator* it) {
  std::vector<Tuple> out;
  const size_t arity = static_cast<size_t>(it->arity());
  if (arity == 0) return out;
  Tuple current(arity);
  auto walk = [&](auto&& self, size_t depth, size_t parent_pos) -> void {
    KeySpan span = it->Open(parent_pos);
    for (size_t p = span.lo; p < span.hi; ++p) {
      current[depth] = span.keys[p];
      if (depth + 1 == arity) {
        out.push_back(current);
      } else {
        self(self, depth + 1, p);
      }
    }
    it->Up();
  };
  walk(walk, 0, 0);
  return out;
}

/// The keys of a span as a vector.
inline std::vector<int64_t> SpanKeys(const KeySpan& span) {
  return std::vector<int64_t>(span.keys + span.lo, span.keys + span.hi);
}

}  // namespace xjoin::testing

#endif  // XJOIN_TESTS_TEST_UTIL_H_
