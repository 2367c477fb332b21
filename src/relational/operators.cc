#include "relational/operators.h"

#include <algorithm>
#include <unordered_map>

#include "common/hash.h"
#include "common/logging.h"

namespace xjoin {

namespace {

struct KeyHash {
  size_t operator()(const Tuple& t) const {
    size_t h = 0xcbf29ce484222325ULL;
    for (int64_t v : t) h = HashCombine(h, static_cast<size_t>(v));
    return h;
  }
};

}  // namespace

Result<Relation> Project(const Relation& input,
                         const std::vector<std::string>& attributes) {
  std::vector<size_t> idx;
  idx.reserve(attributes.size());
  for (const auto& a : attributes) {
    int i = input.schema().IndexOf(a);
    if (i < 0)
      return Status::InvalidArgument("project: unknown attribute " + a);
    idx.push_back(static_cast<size_t>(i));
  }
  XJ_ASSIGN_OR_RETURN(Schema out_schema, Schema::Make(attributes));
  Relation out(std::move(out_schema));
  Tuple row(idx.size());
  for (size_t r = 0; r < input.num_rows(); ++r) {
    for (size_t c = 0; c < idx.size(); ++c) row[c] = input.at(r, idx[c]);
    out.AppendRow(row);
  }
  out.SortAndDedup();
  return out;
}

Result<Relation> HashJoin(const Relation& left, const Relation& right,
                          Metrics* metrics) {
  // Shared attributes, with positions in each side.
  std::vector<std::pair<size_t, size_t>> shared;  // (left idx, right idx)
  for (size_t i = 0; i < left.schema().size(); ++i) {
    int j = right.schema().IndexOf(left.schema().attribute(i));
    if (j >= 0) shared.emplace_back(i, static_cast<size_t>(j));
  }
  std::vector<size_t> right_extra;  // right columns not shared
  for (size_t j = 0; j < right.schema().size(); ++j) {
    bool is_shared = false;
    for (const auto& [li, rj] : shared) {
      (void)li;
      if (rj == j) {
        is_shared = true;
        break;
      }
    }
    if (!is_shared) right_extra.push_back(j);
  }

  std::vector<std::string> out_attrs = left.schema().attributes();
  for (size_t j : right_extra) out_attrs.push_back(right.schema().attribute(j));
  XJ_ASSIGN_OR_RETURN(Schema out_schema, Schema::Make(std::move(out_attrs)));
  Relation out(std::move(out_schema));

  // Build on the smaller side keyed by the shared attributes; for clarity
  // we always build on `right` (callers order plans explicitly).
  std::unordered_map<Tuple, std::vector<size_t>, KeyHash> table;
  table.reserve(right.num_rows() * 2);
  Tuple key(shared.size());
  for (size_t r = 0; r < right.num_rows(); ++r) {
    for (size_t c = 0; c < shared.size(); ++c)
      key[c] = right.at(r, shared[c].second);
    table[key].push_back(r);
  }

  Tuple out_row(out.num_columns());
  for (size_t l = 0; l < left.num_rows(); ++l) {
    for (size_t c = 0; c < shared.size(); ++c)
      key[c] = left.at(l, shared[c].first);
    auto it = table.find(key);
    if (it == table.end()) continue;
    for (size_t r : it->second) {
      size_t o = 0;
      for (size_t c = 0; c < left.num_columns(); ++c)
        out_row[o++] = left.at(l, c);
      for (size_t j : right_extra) out_row[o++] = right.at(r, j);
      out.AppendRow(out_row);
      MetricsAdd(metrics, "hash_join.probe_matches", 1);
    }
  }
  out.SortAndDedup();
  MetricsAdd(metrics, "hash_join.output", static_cast<int64_t>(out.num_rows()));
  return out;
}

Result<Relation> JoinAll(const std::vector<const Relation*>& inputs,
                         Metrics* metrics) {
  if (inputs.empty()) return Status::InvalidArgument("JoinAll: no inputs");
  Relation acc = *inputs[0];
  acc.SortAndDedup();
  int64_t max_intermediate = static_cast<int64_t>(acc.num_rows());
  int64_t total_intermediate = static_cast<int64_t>(acc.num_rows());
  for (size_t i = 1; i < inputs.size(); ++i) {
    XJ_ASSIGN_OR_RETURN(acc, HashJoin(acc, *inputs[i], nullptr));
    max_intermediate =
        std::max(max_intermediate, static_cast<int64_t>(acc.num_rows()));
    total_intermediate += static_cast<int64_t>(acc.num_rows());
  }
  if (metrics != nullptr) {
    metrics->RecordMax("plan.max_intermediate", max_intermediate);
    metrics->Add("plan.total_intermediate", total_intermediate);
  }
  return acc;
}

bool RelationsEqualAsSets(const Relation& a, const Relation& b) {
  if (!(a.schema() == b.schema())) return false;
  Relation ca = a;
  Relation cb = b;
  ca.SortAndDedup();
  cb.SortAndDedup();
  if (ca.num_rows() != cb.num_rows()) return false;
  for (size_t r = 0; r < ca.num_rows(); ++r) {
    for (size_t c = 0; c < ca.num_columns(); ++c) {
      if (ca.at(r, c) != cb.at(r, c)) return false;
    }
  }
  return true;
}

}  // namespace xjoin
