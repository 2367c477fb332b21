// Ext-2: XMark-like workload — deep twig queries over the auction
// document joined with relational category/geography tables, across
// scale factors and for both query shapes.
//
// Flags: --threads=N  run XJoin sharded on N threads (default 1, serial).
#include <cstdio>

#include "bench/bench_util.h"
#include "workload/xmark.h"

namespace xjoin::bench {
namespace {

void Run(int threads) {
  Banner("XMark-like workload: XJoin vs baseline");
  Table table({"scale", "doc nodes", "query", "|Q|", "baseline time",
               "xjoin time", "time ratio", "base max-inter",
               "xjoin max-inter"});
  for (int64_t scale : {1, 4, 16}) {
    XMarkOptions opts;
    opts.num_items = 200 * scale;
    opts.num_persons = 100 * scale;
    opts.num_open_auctions = 120 * scale;
    opts.num_closed_auctions = 100 * scale;
    XMarkInstance inst = MakeXMark(opts);
    struct NamedQuery {
      const char* name;
      MultiModelQuery query;
    };
    NamedQuery queries[] = {
        {"closed_auction[itemref,buyer]/price", inst.ClosedAuctionQuery()},
        {"site//open_auction[bidder/personref]/itemref",
         inst.OpenAuctionQuery()},
    };
    for (auto& nq : queries) {
      RunStats base = RunBaseline(nq.query);
      PlanSettings xj_opts;
      xj_opts.num_threads = threads;
      RunStats xj = RunXJoin(nq.query, xj_opts);
      XJ_CHECK(base.output_rows == xj.output_rows);
      table.AddRow({FmtInt(scale),
                    FmtInt(static_cast<int64_t>(inst.doc->num_nodes())),
                    nq.name, FmtInt(xj.output_rows), FmtSeconds(base.seconds),
                    FmtSeconds(xj.seconds),
                    FmtRatio(base.seconds, xj.seconds),
                    FmtInt(base.max_intermediate),
                    FmtInt(xj.max_intermediate)});
    }
  }
  table.Print();
}

}  // namespace
}  // namespace xjoin::bench

int main(int argc, char** argv) {
  xjoin::bench::Run(
      static_cast<int>(xjoin::bench::IntFlag(argc, argv, "threads", 1)));
  return 0;
}
