// Abl-2: the paper's on-going-work extension — partially validating the
// twig structure during the join (prefix pruning) — on vs off.
#include <cstdio>

#include "bench/bench_util.h"
#include "common/metrics.h"
#include "workload/paper_example.h"
#include "workload/xmark.h"

namespace xjoin::bench {
namespace {

struct PruneStats {
  RunStats run;
  int64_t expanded = 0;
  int64_t pruned = 0;
};

PruneStats RunWith(const MultiModelQuery& query, bool pruning) {
  Metrics metrics;
  PlanSettings settings;
  settings.structural_pruning = pruning;
  EngineServices services;
  services.metrics = &metrics;
  Timer timer;
  auto result = ExecuteXJoin(query, settings, services);
  PruneStats stats;
  stats.run.seconds = timer.ElapsedSeconds();
  XJ_CHECK(result.ok()) << result.status().ToString();
  stats.run.output_rows = static_cast<int64_t>(result->num_rows());
  stats.expanded = metrics.Get("xjoin.expanded");
  stats.pruned = metrics.Get("xjoin.pruned");
  return stats;
}

void Row(Table* table, const char* name, const MultiModelQuery& query) {
  PruneStats off = RunWith(query, false);
  PruneStats on = RunWith(query, true);
  XJ_CHECK(off.run.output_rows == on.run.output_rows);
  table->AddRow({name, FmtInt(off.run.output_rows), FmtInt(off.expanded),
                 FmtInt(on.expanded), FmtInt(on.pruned),
                 FmtSeconds(off.run.seconds), FmtSeconds(on.run.seconds)});
}

void Run() {
  Banner("Ablation: in-join structural pruning (paper section 4 extension)");
  Table table({"workload", "|Q|", "expanded (off)", "expanded (on)",
               "prefixes pruned", "time off", "time on"});
  {
    PaperInstance inst = MakePaperInstance(8, PaperSchema::kExample34,
                                           PaperDataMode::kRandom);
    MultiModelQuery q = inst.Query();
    Row(&table, "paper random n=8", q);
  }
  {
    PaperInstance inst = MakePaperInstance(10, PaperSchema::kExample34,
                                           PaperDataMode::kAdversarial);
    MultiModelQuery q = inst.Query();
    Row(&table, "paper adversarial n=10", q);
  }
  {
    XMarkOptions opts;
    XMarkInstance inst = MakeXMark(opts);
    MultiModelQuery q = inst.OpenAuctionQuery();
    Row(&table, "xmark open_auction", q);
  }
  table.Print();
  std::printf(
      "\n'expanded' counts value tuples surviving attribute expansion\n"
      "before final validation; pruning removes structurally infeasible\n"
      "prefixes early at the price of validator calls per binding.\n");
}

}  // namespace
}  // namespace xjoin::bench

int main() {
  xjoin::bench::Run();
  return 0;
}
