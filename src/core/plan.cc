#include "core/plan.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <utility>

#include "common/hash.h"
#include "common/string_util.h"
#include "core/bound.h"
#include "relational/intersect_kernels.h"

namespace xjoin {

namespace {

// Static key-count estimate for one input at one of its local trie
// levels: exact level sizes for relation tries, per-tag candidate
// populations for lazy path relations. O(1) either way.
int64_t LevelEstimate(const RelationTrie* trie, const PathRelation* path,
                      size_t local_level) {
  if (trie != nullptr) {
    return static_cast<int64_t>(trie->level_keys(local_level).size());
  }
  return static_cast<int64_t>(
      path->index().NodesByTag(path->tags()[local_level]).size());
}

// One resolved join participant, as the planner sees it.
struct PlannedInput {
  const std::string* name;
  const std::vector<std::string>* attrs;
  const RelationTrie* trie;  // set for relation inputs
  const PathRelation* path;  // set for path inputs
};

std::vector<PlannedInput> CollectInputs(const XJoinPlan& plan) {
  std::vector<PlannedInput> inputs;
  inputs.reserve(plan.rel_inputs.size() + plan.path_inputs.size());
  for (const auto& r : plan.rel_inputs) {
    inputs.push_back({&r.name, &r.attrs, r.trie.get(), nullptr});
  }
  for (const auto& p : plan.path_inputs) {
    inputs.push_back({&p.name, &p.attrs, nullptr,
                      &plan.twigs[p.twig_index].paths[p.path_index]});
  }
  return inputs;
}

// Fills plan.levels: participants, coverage, the planned leapfrog lead
// (smallest static key-count estimate at the input's local level), and
// the planned intersection kernel — the same selection rule the engine
// applies at every open (ChooseIntersectStrategy), fed the static
// estimates.
void PlanLevels(XJoinPlan* plan) {
  std::vector<PlannedInput> inputs = CollectInputs(*plan);
  plan->levels.reserve(plan->order.size());
  for (const auto& attribute : plan->order) {
    PlanLevel level;
    level.attribute = attribute;
    int64_t min_estimate = std::numeric_limits<int64_t>::max();
    int64_t max_estimate = 0;
    for (const auto& in : inputs) {
      auto it = std::find(in.attrs->begin(), in.attrs->end(), attribute);
      if (it == in.attrs->end()) continue;
      size_t local = static_cast<size_t>(it - in.attrs->begin());
      level.participants.push_back(*in.name);
      int64_t estimate = LevelEstimate(in.trie, in.path, local);
      if (estimate < min_estimate) {
        level.lead = *in.name;
        level.lead_estimate = estimate;
      }
      min_estimate = std::min(min_estimate, estimate);
      max_estimate = std::max(max_estimate, estimate);
    }
    level.coverage = static_cast<int>(level.participants.size());
    level.kernel = level.coverage <= 1
                       ? "drain"
                       : IntersectStrategyName(ChooseIntersectStrategy(
                             level.participants.size(), min_estimate,
                             max_estimate));
    plan->levels.push_back(std::move(level));
  }
}

// Decides whether a twig's final structural validation (Algorithm 1's
// "filter R by validating the structure of Sx") can reject any expanded
// row, and records the outcome with its reason for EXPLAIN. It cannot
// when the twig has no cut A-D edge and every node with two or more
// children has a value-unique tag (NodeIndex::ValuesUnique):
//  - each path tuple is a real P-C chain of document nodes carrying the
//    path's tags and values (core/virtual_relation.h);
//  - a branching node b has one value in the row, and its (tag, value)
//    names a single document node, so every chain through b uses that
//    node; parent links then fix the nodes of b's ancestors as well;
//  - a twig node on two or more root-leaf paths is b or an ancestor of
//    some branching node b, and a node on one path has one chain;
// so the row's chains agree on every shared node, and their union is one
// embedding binding each twig node to its row value. ExistsEmbedding
// accepts every such row, so skipping it changes no answer.
void CertifyTwig(const Twig& twig, const NodeIndex& index,
                 XJoinPlan::TwigExec* exec) {
  // "tag a" / "tags a, b", with the verb to match.
  auto tags = [](const std::vector<std::string>& names, const char* one,
                 const char* many) {
    return std::string(names.size() == 1 ? "tag " : "tags ") +
           JoinStrings(names, ", ") + " " + (names.size() == 1 ? one : many);
  };
  const auto& cut_edges = exec->decomposition.cut_edges;
  if (!cut_edges.empty()) {
    std::vector<std::string> cuts;
    for (const auto& [ancestor, descendant] : cut_edges) {
      cuts.push_back(twig.node(ancestor).attribute + "//" +
                     twig.node(descendant).attribute);
    }
    exec->validation = std::string("final (cut edge") +
                       (cuts.size() == 1 ? " " : "s ") +
                       JoinStrings(cuts, ", ") + ")";
    return;
  }
  std::vector<std::string> unique;
  std::vector<std::string> repeating;
  for (size_t q = 0; q < twig.num_nodes(); ++q) {
    const TwigNode& node = twig.node(static_cast<TwigNodeId>(q));
    if (node.children.size() < 2) continue;
    std::vector<std::string>& bucket =
        index.ValuesUnique(index.doc().LookupTag(node.tag)) ? unique
                                                            : repeating;
    if (std::find(bucket.begin(), bucket.end(), node.tag) == bucket.end()) {
      bucket.push_back(node.tag);
    }
  }
  if (!repeating.empty()) {
    exec->validation = "final (" + tags(repeating, "repeats", "repeat") +
                       " values)";
    return;
  }
  exec->certified = true;
  exec->validation =
      unique.empty() ? "none (P-C only; no branching nodes)"
                     : "none (P-C only; branching " +
                           tags(unique, "has", "have") + " unique values)";
}

}  // namespace

std::string PathSignature(const Twig& twig, const TwigPath& path) {
  std::string sig;
  for (size_t i = 0; i < path.nodes.size(); ++i) {
    if (i) sig += '/';
    sig += twig.node(path.nodes[i]).tag;
    sig += ':';
    sig += path.attributes[i];
  }
  return sig;
}

size_t PlanFingerprint(const PlanSettings& settings) {
  size_t fp = 0;
  fp = HashBytes(fp, JoinStrings(settings.attribute_order, ","));
  fp = HashCombine(fp, static_cast<size_t>(settings.order_heuristic));
  fp = HashCombine(fp, static_cast<size_t>(std::max(1, settings.num_threads)));
  fp = HashCombine(fp, static_cast<size_t>(std::max(0, settings.num_shards)));
  return fp;
}

Result<std::shared_ptr<XJoinPlan>> PrepareXJoin(
    const MultiModelQuery& query, const PlanSettings& settings,
    const EngineServices& services) {
  Timer timer;
  XJ_RETURN_NOT_OK(ValidateQuery(query));

  auto plan = std::make_shared<XJoinPlan>();
  plan->query = query;
  plan->settings = settings;
  plan->settings.num_threads = std::max(1, settings.num_threads);
  plan->settings.num_shards = std::max(0, settings.num_shards);

  // 1. Expansion order (PA).
  if (settings.attribute_order.empty()) {
    XJ_ASSIGN_OR_RETURN(
        plan->order,
        ChooseAttributeOrder(plan->query, settings.order_heuristic));
  } else {
    XJ_RETURN_NOT_OK(
        CheckAttributeOrder(plan->query, settings.attribute_order));
    plan->order = settings.attribute_order;
  }
  std::map<std::string, size_t> order_pos;
  for (size_t i = 0; i < plan->order.size(); ++i) order_pos[plan->order[i]] = i;

  // 2. Transform(Sx): decompose twigs into path relations and build the
  // structural validators. The validators point into plan->query's twig
  // storage, which is why XJoinPlan is pinned to the heap.
  for (size_t t = 0; t < plan->query.twigs.size(); ++t) {
    const TwigInput& ti = plan->query.twigs[t];
    XJoinPlan::TwigExec exec(TwigStructureValidator(&ti.twig, ti.index));
    XJ_ASSIGN_OR_RETURN(exec.decomposition, DecomposeTwig(ti.twig));
    CertifyTwig(ti.twig, *ti.index, &exec);
    exec.order_pos_of_node.resize(ti.twig.num_nodes());
    for (size_t q = 0; q < ti.twig.num_nodes(); ++q) {
      exec.order_pos_of_node[q] =
          order_pos.at(ti.twig.node(static_cast<TwigNodeId>(q)).attribute);
    }
    for (size_t p = 0; p < exec.decomposition.paths.size(); ++p) {
      XJ_ASSIGN_OR_RETURN(
          PathRelation rel,
          PathRelation::Make(ti.twig, exec.decomposition.paths[p], ti.index));
      exec.paths.push_back(std::move(rel));
      XJoinPlan::PathInput input;
      input.name =
          "twig" + std::to_string(t + 1) + ".P" + std::to_string(p + 1);
      input.twig_index = t;
      input.path_index = p;
      input.attrs = exec.decomposition.paths[p].attributes;
      input.signature = PathSignature(ti.twig, exec.decomposition.paths[p]);
      plan->path_inputs.push_back(std::move(input));
    }
    plan->twigs.push_back(std::move(exec));
  }

  // 3. Pin relation tries: provider (the database cache) first, private
  // build otherwise. Builds use the plan's thread count. Trie builds are
  // the expensive prepare-time step, so the budget (and the cancel
  // sources it carries) is polled before each one rather than only at
  // execution.
  BudgetTracker* budget = services.budget;
  TrieBuildOptions build_options;
  build_options.num_threads = plan->settings.num_threads;
  build_options.metrics = services.metrics;
  for (const auto& nr : plan->query.relations) {
    if (budget != nullptr && budget->violated()) return budget->status();
    XJoinPlan::RelInput input;
    input.name = nr.name;
    input.relation = nr.relation;
    for (const auto& a : plan->order) {
      if (nr.relation->schema().Contains(a)) input.attrs.push_back(a);
    }
    if (services.trie_provider) {
      XJ_ASSIGN_OR_RETURN(input.trie, services.trie_provider(
                                          nr.name, *nr.relation, input.attrs));
      input.from_provider = input.trie != nullptr;
    }
    if (input.trie == nullptr) {
      XJ_ASSIGN_OR_RETURN(
          RelationTrie built,
          RelationTrie::Build(*nr.relation, input.attrs, build_options));
      input.trie = std::make_shared<const RelationTrie>(std::move(built));
    }
    (input.from_provider ? plan->tries_provider : plan->tries_built) += 1;
    plan->rel_inputs.push_back(std::move(input));
  }

  // 4. Per-level rationale, from the pinned tries' O(1) level
  // statistics.
  PlanLevels(plan.get());

  MetricsAdd(services.metrics, "plan.prepared", 1);
  MetricsAdd(services.metrics, "plan.prepare_micros", timer.ElapsedMicros());
  return plan;
}

std::string ExplainPlan(const XJoinPlan& plan) {
  std::string out;
  out += "inputs:\n";
  for (const auto& r : plan.rel_inputs) {
    out += "  relation " + r.relation->schema().ToString(r.name) + "  [" +
           std::to_string(r.relation->num_rows()) + " rows]  trie: " +
           (r.from_provider ? "pinned via db cache" : "built privately") +
           "\n";
  }
  for (size_t t = 0; t < plan.query.twigs.size(); ++t) {
    const TwigInput& ti = plan.query.twigs[t];
    out += "  twig " + ti.twig.ToString() + "  [document: " +
           std::to_string(ti.index->doc().num_nodes()) + " nodes]\n";
    out += "    transform(Sx): " +
           DecompositionToString(ti.twig, plan.twigs[t].decomposition) + "\n";
    out += "    validation: " + plan.twigs[t].validation + "\n";
  }
  for (const auto& p : plan.path_inputs) {
    out += "  path " + p.name + " = " + p.signature + "\n";
  }

  out += "expansion order (PA): " + JoinStrings(plan.order, " -> ") + "\n";
  for (size_t d = 0; d < plan.levels.size(); ++d) {
    const PlanLevel& level = plan.levels[d];
    out += "  level " + std::to_string(d) + ": " + level.attribute +
           "  inputs {" + JoinStrings(level.participants, ", ") + "}  lead " +
           level.lead + " (~" + std::to_string(level.lead_estimate) +
           " keys)";
    if (!level.kernel.empty()) out += "  kernel " + level.kernel;
    out += "\n";
  }

  // GenericJoin cuts the shards from the level-0 lead's keys at run
  // time, so the count it reaches is min(requested, that key count).
  const PlanSettings& settings = plan.settings;
  out += "shard plan: " +
         std::to_string(settings.num_shards > 0 ? settings.num_shards
                                                : settings.num_threads) +
         " requested";
  if (!plan.levels.empty()) {
    out += ", cut from level-0 lead " + plan.levels[0].lead + " (~" +
           std::to_string(plan.levels[0].lead_estimate) + " keys)";
  }
  out += "\n";
  out += "pinned tries: " + std::to_string(plan.tries_provider) +
         " via db cache, " + std::to_string(plan.tries_built) +
         " private builds\n";

  BoundOptions bound_options;
  bound_options.path_size_mode = PathSizeMode::kChainCount;
  auto bound = ComputeBound(plan.query, bound_options);
  if (bound.ok()) {
    out += "worst-case size bound: 2^" +
           FormatDouble(bound->cover.log2_bound) + " = " +
           FormatDouble(std::exp2(bound->cover.log2_bound)) +
           " tuples (chain-count path sizes)\n";
    if (!plan.query.output_attributes.empty()) {
      out += "bound on output attributes: 2^" +
             FormatDouble(bound->log2_output_bound) + "\n";
    }
  }

  out += "output: ";
  if (plan.query.output_attributes.empty()) {
    out += "all attributes\n";
  } else {
    out += JoinStrings(plan.query.output_attributes, ", ") + "\n";
  }
  return out;
}

}  // namespace xjoin
