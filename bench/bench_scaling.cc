// Ext-1: scaling behaviour of XJoin vs the baseline as n grows, on both
// the adversarial paper instance (baseline degrades as ~n^5) and random
// data (both engines scale gracefully) — plus the shard/thread sweep of
// the parallel executor on the XMark join, emitting a JSON perf
// trajectory future PRs can diff against.
//
// Flags: --threads=1,2,4,8   shard counts for the thread sweep
//        --xmark-scale=64    XMark size multiplier for the sweep
//        --json=PATH         also write the sweep records to PATH
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "workload/paper_example.h"
#include "workload/xmark.h"

namespace xjoin::bench {
namespace {

void Sweep(PaperDataMode mode, const char* label) {
  Banner(std::string("Scaling on ") + label + " data (Example 3.4 schema)");
  Table table({"n", "baseline time", "xjoin time", "base total-inter",
               "xjoin total-inter", "|Q|"});
  // The baseline materializes the ~n^5 twig result on this document, so
  // the sweep stops where that blow-up is still measurable in seconds.
  std::vector<int64_t> ns = mode == PaperDataMode::kAdversarial
                                ? std::vector<int64_t>{2, 4, 8, 12}
                                : std::vector<int64_t>{4, 8, 12, 16};
  for (int64_t n : ns) {
    PaperInstance inst = MakePaperInstance(n, PaperSchema::kExample34, mode);
    MultiModelQuery query = inst.Query();
    RunStats base = RunBaseline(query);
    RunStats xj = RunXJoin(query);
    table.AddRow({FmtInt(n), FmtSeconds(base.seconds), FmtSeconds(xj.seconds),
                  FmtInt(base.total_intermediate),
                  FmtInt(xj.total_intermediate), FmtInt(xj.output_rows)});
  }
  table.Print();
}

// Shard/thread sweep on the XMark closed-auction join: serial first,
// then each requested thread count, best of `kReps` runs. Every sharded
// result is checked byte-identical to the serial one before timing is
// trusted.
void ThreadSweep(const std::vector<int>& threads_list, int64_t xmark_scale,
                 const char* json_path) {
  Banner("Thread sweep: sharded XJoin on the XMark closed-auction join");
  XMarkOptions opts;
  opts.num_items = 200 * xmark_scale;
  opts.num_persons = 100 * xmark_scale;
  opts.num_open_auctions = 120 * xmark_scale;
  opts.num_closed_auctions = 100 * xmark_scale;
  XMarkInstance inst = MakeXMark(opts);
  MultiModelQuery query = inst.ClosedAuctionQuery();
  constexpr int kReps = 3;

  auto run_once = [&](int threads, Metrics* metrics) {
    PlanSettings settings;
    settings.num_threads = threads;
    EngineServices services;
    services.metrics = metrics;
    Timer timer;
    auto result = ExecuteXJoin(query, settings, services);
    double seconds = timer.ElapsedSeconds();
    XJ_CHECK(result.ok()) << result.status().ToString();
    return std::make_pair(seconds, *std::move(result));
  };

  Metrics serial_metrics;
  auto [serial_seconds, serial_result] = run_once(1, &serial_metrics);
  for (int rep = 1; rep < kReps; ++rep) {
    Metrics m;
    serial_seconds = std::min(serial_seconds, run_once(1, &m).first);
  }
  const std::vector<Tuple> expected = serial_result.ToTuples();

  Table table({"threads", "shards", "time", "speedup", "|Q|"});
  JsonArrayWriter json;
  for (int threads : threads_list) {
    double best = 0.0;
    int64_t shards = 1;
    if (threads <= 1) {
      best = serial_seconds;
    } else {
      for (int rep = 0; rep < kReps; ++rep) {
        Metrics m;
        auto [seconds, result] = run_once(threads, &m);
        XJ_CHECK(result.ToTuples() == expected)
            << "sharded result diverged at threads=" << threads;
        if (rep == 0 || seconds < best) best = seconds;
        shards = m.Get("gj.shards");
      }
    }
    double speedup = best > 0 ? serial_seconds / best : 0.0;
    table.AddRow({FmtInt(threads), FmtInt(shards), FmtSeconds(best),
                  FmtF(speedup, 2) + "x",
                  FmtInt(static_cast<int64_t>(serial_result.num_rows()))});
    json.BeginObject()
        .Field("bench", "bench_scaling")
        .Field("section", "thread_sweep")
        .Field("workload", "xmark.closed_auction")
        .Field("xmark_scale", xmark_scale)
        .Field("doc_nodes", static_cast<int64_t>(inst.doc->num_nodes()))
        .Field("threads", threads)
        .Field("shards", shards)
        .Field("seconds", best, 6)
        .Field("speedup", speedup, 3)
        .Field("output_rows", static_cast<int64_t>(serial_result.num_rows()));
  }
  table.Print();
  json.Emit(json_path);
}

}  // namespace
}  // namespace xjoin::bench

int main(int argc, char** argv) {
  xjoin::bench::Sweep(xjoin::PaperDataMode::kAdversarial, "adversarial");
  xjoin::bench::Sweep(xjoin::PaperDataMode::kRandom, "random");
  xjoin::bench::ThreadSweep(
      xjoin::bench::IntListFlag(argc, argv, "threads", {1, 2, 4, 8}),
      xjoin::bench::IntFlag(argc, argv, "xmark-scale", 64),
      xjoin::bench::FlagValue(argc, argv, "json"));
  return 0;
}
