// Abl-3: sensitivity to the attribute expansion priority PA (Algorithm
// 1's input). Compares the automatic order against hand-picked
// alternatives on the paper instance.
#include <cstdio>

#include "bench/bench_util.h"
#include "core/order.h"
#include "workload/paper_example.h"

namespace xjoin::bench {
namespace {

void Row(Table* table, const MultiModelQuery& query, const char* name,
         const std::vector<std::string>& order) {
  Metrics metrics;
  PlanSettings settings;
  settings.attribute_order = order;
  EngineServices services;
  services.metrics = &metrics;
  Timer timer;
  auto result = ExecuteXJoin(query, settings, services);
  XJ_CHECK(result.ok()) << result.status().ToString();
  std::string order_str;
  for (const auto& a : order) order_str += a;
  table->AddRow({name, order_str, FmtSeconds(timer.ElapsedSeconds()),
                 FmtInt(metrics.Get("gj.total_intermediate")),
                 FmtInt(metrics.Get("gj.seeks")),
                 FmtInt(static_cast<int64_t>(result->num_rows()))});
}

void Run() {
  Banner("Ablation: attribute order PA (paper adversarial, n=10)");
  PaperInstance inst = MakePaperInstance(10, PaperSchema::kExample34,
                                         PaperDataMode::kAdversarial);
  MultiModelQuery query = inst.Query();
  Table table({"PA", "order", "time", "total intermediates", "seeks", "|Q|"});

  auto auto_order = ChooseAttributeOrder(query);
  XJ_CHECK(auto_order.ok());
  Row(&table, query, "auto (coverage greedy)", *auto_order);
  auto domain_order =
      ChooseAttributeOrder(query, OrderHeuristic::kSmallestDomain);
  XJ_CHECK(domain_order.ok());
  Row(&table, query, "auto (smallest domain)", *domain_order);
  Row(&table, query, "twig-first", {"A", "B", "D", "C", "E", "F", "H", "G"});
  Row(&table, query, "relation-major",
      {"A", "B", "C", "D", "E", "F", "G", "H"});
  Row(&table, query, "leaves-late", {"A", "C", "F", "B", "D", "E", "H", "G"});
  table.Print();
  std::printf(
      "\nEvery valid PA yields the same answer (worst-case optimality is\n"
      "order-independent); constants differ, which is why Algorithm 1\n"
      "takes PA as an input.\n");
}

}  // namespace
}  // namespace xjoin::bench

int main() {
  xjoin::bench::Run();
  return 0;
}
