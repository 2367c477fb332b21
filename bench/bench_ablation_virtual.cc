// Abl-1: cost of "not physically transforming" the twig — lazy path
// tries navigated in place vs materialized path relations + sorted
// tries. The paper's design keeps path relations virtual; this ablation
// quantifies what that choice costs/saves.
#include <cstdio>

#include "bench/bench_util.h"
#include "workload/paper_example.h"
#include "workload/xmark.h"

namespace xjoin::bench {
namespace {

void Row(Table* table, const char* name, const MultiModelQuery& query) {
  PlanSettings lazy;
  RunStats a = RunXJoin(query, lazy);
  PlanSettings mat;
  mat.materialize_paths = true;
  RunStats b = RunXJoin(query, mat);
  XJ_CHECK(a.output_rows == b.output_rows);
  table->AddRow({name, FmtInt(a.output_rows), FmtSeconds(a.seconds),
                 FmtSeconds(b.seconds), FmtRatio(b.seconds, a.seconds)});
}

void Run() {
  Banner("Ablation: lazy (paper) vs materialized path relations");
  Table table({"workload", "|Q|", "lazy time", "materialized time",
               "materialized/lazy"});
  {
    PaperInstance inst = MakePaperInstance(10, PaperSchema::kExample34,
                                           PaperDataMode::kAdversarial);
    MultiModelQuery q = inst.Query();
    Row(&table, "paper adversarial n=10", q);
  }
  {
    PaperInstance inst = MakePaperInstance(64, PaperSchema::kExample34,
                                           PaperDataMode::kRandom);
    MultiModelQuery q = inst.Query();
    Row(&table, "paper random n=64", q);
  }
  {
    XMarkOptions opts;
    opts.num_items = 800;
    opts.num_persons = 400;
    opts.num_open_auctions = 480;
    opts.num_closed_auctions = 400;
    XMarkInstance inst = MakeXMark(opts);
    MultiModelQuery q1 = inst.ClosedAuctionQuery();
    Row(&table, "xmark closed_auction", q1);
    MultiModelQuery q2 = inst.OpenAuctionQuery();
    Row(&table, "xmark open_auction (deep)", q2);
  }
  table.Print();
  std::printf(
      "\nLazy tries avoid enumerating path relations that the join never\n"
      "asks for (adversarial case); materialization can win when every\n"
      "chain is visited repeatedly.\n");
}

}  // namespace
}  // namespace xjoin::bench

int main() {
  xjoin::bench::Run();
  return 0;
}
