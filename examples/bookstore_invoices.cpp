// Domain example 1: order/invoice reconciliation (the paper's Figure 1
// scenario at realistic scale). Generates a bookstore instance, runs the
// enriched multi-model query with both engines, verifies they agree, and
// reports per-engine statistics — the workflow a downstream user would
// follow to decide which engine to deploy.
//
//   ./build/examples/bookstore_invoices [scale]
#include <cstdio>
#include <cstdlib>

#include "common/metrics.h"
#include "core/baseline.h"
#include "core/bound.h"
#include "core/xjoin.h"
#include "relational/operators.h"
#include "workload/bookstore.h"

int main(int argc, char** argv) {
  using namespace xjoin;

  int64_t scale = argc > 1 ? std::atoll(argv[1]) : 4;
  BookstoreOptions options;
  options.num_orders = 500 * scale;
  options.num_invoices = 400 * scale;
  options.num_users = 100 * scale;
  options.num_books = 150 * scale;
  std::printf("generating bookstore instance (scale %lld): %lld orders, "
              "%lld invoices...\n",
              static_cast<long long>(scale),
              static_cast<long long>(options.num_orders),
              static_cast<long long>(options.num_invoices));
  BookstoreInstance inst = MakeBookstore(options);
  std::printf("document: %zu XML nodes\n", inst.doc->num_nodes());

  MultiModelQuery query = inst.EnrichedQuery();

  // What does the theory promise? Print the data-dependent bound first.
  auto bound = ComputeBound(query);
  if (bound.ok()) {
    std::printf("worst-case size bound: 2^%.2f tuples\n",
                bound->cover.log2_bound);
  }

  // XJoin.
  Metrics xj_metrics;
  EngineServices xj_services;
  xj_services.metrics = &xj_metrics;
  Timer timer;
  auto xj = ExecuteXJoin(query, PlanSettings{}, xj_services);
  double xj_seconds = timer.ElapsedSeconds();
  if (!xj.ok()) {
    std::fprintf(stderr, "XJoin failed: %s\n", xj.status().ToString().c_str());
    return 1;
  }

  // Baseline.
  Metrics base_metrics;
  BaselineOptions base_options;
  base_options.metrics = &base_metrics;
  timer.Restart();
  auto base = ExecuteBaseline(query, base_options);
  double base_seconds = timer.ElapsedSeconds();
  if (!base.ok()) {
    std::fprintf(stderr, "baseline failed: %s\n",
                 base.status().ToString().c_str());
    return 1;
  }

  auto base_proj = Project(*base, xj->schema().attributes());
  bool agree = base_proj.ok() && RelationsEqualAsSets(*xj, *base_proj);
  std::printf("\nQ(userID, country, ISBN, genre, price): %zu tuples "
              "(engines agree: %s)\n",
              xj->num_rows(), agree ? "yes" : "NO — BUG");

  std::printf("\n%-22s %12s %12s\n", "", "XJoin", "baseline");
  std::printf("%-22s %11.2fms %11.2fms\n", "running time", xj_seconds * 1e3,
              base_seconds * 1e3);
  std::printf("%-22s %12lld %12lld\n", "max intermediate",
              static_cast<long long>(xj_metrics.Get("xjoin.max_intermediate")),
              static_cast<long long>(
                  base_metrics.Get("baseline.max_intermediate")));

  // Show a few result rows, decoded.
  const Dictionary& dict = *inst.dict;
  std::printf("\nsample results:\n");
  for (size_t r = 0; r < std::min<size_t>(5, xj->num_rows()); ++r) {
    std::printf("  user=%s country=%s isbn=%s genre=%s price=%s\n",
                dict.Decode(xj->at(r, 0)).c_str(),
                dict.Decode(xj->at(r, 1)).c_str(),
                dict.Decode(xj->at(r, 2)).c_str(),
                dict.Decode(xj->at(r, 3)).c_str(),
                dict.Decode(xj->at(r, 4)).c_str());
  }
  return agree ? 0 : 1;
}
