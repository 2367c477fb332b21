#include "core/query.h"

#include <algorithm>
#include <unordered_set>

#include "common/string_util.h"

namespace xjoin {

namespace {

// Splits on commas at bracket depth zero (twig branches keep their
// commas).
std::vector<std::string> SplitTopLevel(std::string_view text) {
  std::vector<std::string> parts;
  std::string current;
  int depth = 0;
  for (char c : text) {
    if (c == '[') ++depth;
    if (c == ']') --depth;
    if (c == ',' && depth == 0) {
      parts.push_back(current);
      current.clear();
    } else {
      current += c;
    }
  }
  parts.push_back(current);
  return parts;
}

}  // namespace

std::vector<std::string> QueryAttributes(const MultiModelQuery& query) {
  std::vector<std::string> out;
  std::unordered_set<std::string> seen;
  auto add = [&](const std::string& a) {
    if (seen.insert(a).second) out.push_back(a);
  };
  for (const auto& nr : query.relations) {
    for (const auto& a : nr.relation->schema().attributes()) add(a);
  }
  for (const auto& twig_input : query.twigs) {
    for (const auto& a : twig_input.twig.attributes()) add(a);
  }
  return out;
}

Status ValidateQuery(const MultiModelQuery& query) {
  if (query.relations.empty() && query.twigs.empty()) {
    return Status::InvalidArgument("query has no inputs");
  }
  for (const auto& nr : query.relations) {
    if (nr.relation == nullptr) {
      return Status::InvalidArgument("relation " + nr.name + " is null");
    }
  }
  // Within a twig attributes are unique (Twig::Validate); the same
  // attribute appearing in two different twigs is a cross-document value
  // join and is allowed.
  for (const auto& twig_input : query.twigs) {
    if (twig_input.index == nullptr) {
      return Status::InvalidArgument("twig input without node index");
    }
    XJ_RETURN_NOT_OK(twig_input.twig.Validate());
    for (size_t i = 0; i < twig_input.twig.num_nodes(); ++i) {
      const TwigNode& n = twig_input.twig.node(static_cast<TwigNodeId>(i));
      if (n.tag == "*") {
        return Status::InvalidArgument(
            "wildcard twig tags are not joinable in multi-model queries");
      }
    }
  }
  std::vector<std::string> all = QueryAttributes(query);
  for (const auto& a : query.output_attributes) {
    if (std::find(all.begin(), all.end(), a) == all.end()) {
      return Status::InvalidArgument("output attribute " + a +
                                     " not in any input");
    }
  }
  return Status::OK();
}

Result<MultiModelQuery> ParseQuery(const std::string& text,
                                   const internal::DatabaseSnapshot& snap) {
  MultiModelQuery query;
  std::string_view rest = TrimWhitespace(text);

  // Optional head "Name(attrs) :=".
  auto assign = rest.find(":=");
  if (assign != std::string_view::npos) {
    std::string_view head = TrimWhitespace(rest.substr(0, assign));
    rest = TrimWhitespace(rest.substr(assign + 2));
    auto open = head.find('(');
    if (open == std::string_view::npos || head.back() != ')') {
      return Status::ParseError("query head must look like Q(a, b)");
    }
    std::string_view attrs = head.substr(open + 1, head.size() - open - 2);
    if (TrimWhitespace(attrs) != "*") {
      for (const auto& part : SplitString(attrs, ',')) {
        std::string attr(TrimWhitespace(part));
        if (attr.empty()) return Status::ParseError("empty output attribute");
        query.output_attributes.push_back(std::move(attr));
      }
    }
  }
  if (rest.empty()) return Status::ParseError("query has no inputs");

  for (const auto& part : SplitTopLevel(rest)) {
    std::string_view input = TrimWhitespace(part);
    if (input.empty()) return Status::ParseError("empty query input");
    auto colon = input.find(':');
    if (colon == std::string_view::npos) {
      // Relation reference, bound to the snapshot's pinned storage.
      std::string name(input);
      auto it = snap.relations.find(name);
      if (it == snap.relations.end()) {
        return Status::NotFound("no relation " + name);
      }
      query.relations.push_back({name, it->second.relation.get()});
    } else {
      std::string doc_name(TrimWhitespace(input.substr(0, colon)));
      std::string pattern(TrimWhitespace(input.substr(colon + 1)));
      auto it = snap.documents.find(doc_name);
      if (it == snap.documents.end()) {
        return Status::NotFound("no document " + doc_name);
      }
      XJ_ASSIGN_OR_RETURN(Twig twig, Twig::Parse(pattern));
      query.twigs.push_back(
          TwigInput{std::move(twig), it->second.index.get(), doc_name});
    }
  }
  XJ_RETURN_NOT_OK(ValidateQuery(query));
  const size_t width = QueryAttributes(query).size();
  if (width > kMaxQueryAttributes) {
    return Status::ParseError(
        "query names " + std::to_string(width) +
        " distinct attributes; at most kMaxQueryAttributes=" +
        std::to_string(kMaxQueryAttributes) + " are allowed");
  }
  return query;
}

}  // namespace xjoin
