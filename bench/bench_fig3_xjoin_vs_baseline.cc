// Figure 3 (and Example 3.4): XJoin vs the baseline on the paper's
// adversarial instance — R1(A,B,C,D), R2(E,F,G,H) joined with the twig
// A[B,D]//C/E, E//F[H], F//G on a document where the twig alone has ~n^5
// embeddings while the full query is bounded by n^2.
//
// The paper's bar chart reports baseline/XJoin ratios for running time
// and intermediate result size (~10-20x at its unstated n). This harness
// prints the same two series over a sweep of n.
#include <cstdio>

#include "bench/bench_util.h"
#include "workload/paper_example.h"

namespace xjoin::bench {
namespace {

void Run() {
  Banner("Figure 3: X times over XJoin result (adversarial instance)");
  Table table({"n", "twig matches (~n^5)", "baseline time", "xjoin time",
               "time ratio", "baseline max-inter", "xjoin max-inter",
               "intermediate ratio", "|Q|"});
  for (int64_t n : {2, 4, 6, 8, 10, 12}) {
    PaperInstance inst = MakePaperInstance(n, PaperSchema::kExample34,
                                           PaperDataMode::kAdversarial);
    MultiModelQuery query = inst.Query();
    RunStats base = RunBaseline(query);
    RunStats xj = RunXJoin(query);
    XJ_CHECK(base.output_rows == xj.output_rows);
    double n5 = static_cast<double>(n) * n * n * n * n;
    table.AddRow({FmtInt(n), FmtF(n5, 0), FmtSeconds(base.seconds),
                  FmtSeconds(xj.seconds),
                  FmtRatio(base.seconds, xj.seconds),
                  FmtInt(base.max_intermediate), FmtInt(xj.max_intermediate),
                  FmtRatio(static_cast<double>(base.max_intermediate),
                           static_cast<double>(xj.max_intermediate)),
                  FmtInt(xj.output_rows)});
  }
  table.Print();
  std::printf(
      "\nPaper reference: bar chart with baseline ~10-20x over XJoin in both\n"
      "running time and intermediate size; ratios here grow with n as the\n"
      "baseline materializes the ~n^5 twig result while XJoin stays within\n"
      "the n^2 bound at every stage.\n");

  Banner("Figure 3 control: random (non-adversarial) data");
  Table control({"n", "baseline time", "xjoin time", "time ratio",
                 "baseline max-inter", "xjoin max-inter", "|Q|"});
  for (int64_t n : {4, 8, 12}) {
    PaperInstance inst =
        MakePaperInstance(n, PaperSchema::kExample34, PaperDataMode::kRandom);
    MultiModelQuery query = inst.Query();
    RunStats base = RunBaseline(query);
    RunStats xj = RunXJoin(query);
    XJ_CHECK(base.output_rows == xj.output_rows);
    control.AddRow({FmtInt(n), FmtSeconds(base.seconds), FmtSeconds(xj.seconds),
                    FmtRatio(base.seconds, xj.seconds),
                    FmtInt(base.max_intermediate), FmtInt(xj.max_intermediate),
                    FmtInt(xj.output_rows)});
  }
  control.Print();
}

}  // namespace
}  // namespace xjoin::bench

int main() {
  xjoin::bench::Run();
  return 0;
}
