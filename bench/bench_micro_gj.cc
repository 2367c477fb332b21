// Micro: the generic-join expansion loop on output-heavy workloads,
// where the deepest level's drain and its appends into the result
// dominate. Three shapes:
//
//   triangle  R(A,B) x S(B,C) x T(A,C) over dense random relations —
//             two CSR participants at the deepest level, drained
//             through the intersection kernel
//   path2     R(A,B) x S(B,C) — the deepest level has one participant,
//             so it drains as bulk copies out of the span
//   xmark     the XMark closed-auction join (XJoin end to end, lazy
//             path tries in the mix)
//
// Reports the best-of-reps time, |Q| and gj.seeks per shape.
//
// Flags: --reps=5          best-of repetitions per measurement
//        --n=220           triangle/path2 key domain (~n^2-row inputs)
//        --xmark-scale=32  XMark size multiplier
#include <algorithm>
#include <cstdio>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "bench/bench_util.h"
#include "core/generic_join.h"
#include "relational/trie.h"
#include "workload/xmark.h"

namespace xjoin::bench {
namespace {

struct Record {
  std::string workload;
  double seconds = 0.0;
  int64_t rows = 0;
  int64_t seeks = 0;
};

Relation MakeBinary(const char* a, const char* b, int n, int num, int den) {
  auto schema = Schema::Make({a, b});
  Relation rel(*schema);
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < n; ++j) {
      if ((i * num + j) % den == 0) rel.AppendRow({i, j});
    }
  }
  return rel;
}

// One measurement protocol for every workload: the first run records
// |Q| and gj.seeks, and the time is the best of `reps` runs. `run`
// executes the join once and returns (seconds, result).
using RunFn = std::function<std::pair<double, Relation>(Metrics*)>;

Record Measure(const std::string& label, const RunFn& run, int reps) {
  Record record;
  record.workload = label;
  Metrics metrics;
  auto [seconds, rel] = run(&metrics);
  record.seconds = seconds;
  record.rows = static_cast<int64_t>(rel.num_rows());
  record.seeks = metrics.Get("gj.seeks");
  for (int rep = 1; rep < reps; ++rep) {
    Metrics m;
    record.seconds = std::min(record.seconds, run(&m).first);
  }
  return record;
}

Record BenchGenericJoin(const std::string& label,
                        const std::vector<JoinInput>& inputs,
                        std::vector<std::string> order, int reps) {
  return Measure(
      label,
      [&inputs, &order](Metrics* metrics) {
        GenericJoinOptions options;
        options.attribute_order = order;
        options.metrics = metrics;
        Timer timer;
        auto result = GenericJoin(inputs, options);
        double seconds = timer.ElapsedSeconds();
        XJ_CHECK(result.ok()) << result.status().ToString();
        return std::make_pair(seconds, *std::move(result));
      },
      reps);
}

Record BenchXMark(int64_t scale, int reps) {
  XMarkOptions opts;
  opts.num_items = 200 * scale;
  opts.num_persons = 100 * scale;
  opts.num_open_auctions = 120 * scale;
  opts.num_closed_auctions = 100 * scale;
  XMarkInstance inst = MakeXMark(opts);
  MultiModelQuery query = inst.ClosedAuctionQuery();
  return Measure(
      "xmark.closed_auction",
      [&query](Metrics* metrics) {
        EngineServices services;
        services.metrics = metrics;
        Timer timer;
        auto result = ExecuteXJoin(query, PlanSettings{}, services);
        double seconds = timer.ElapsedSeconds();
        XJ_CHECK(result.ok()) << result.status().ToString();
        return std::make_pair(seconds, *std::move(result));
      },
      reps);
}

void Run(int argc, char** argv) {
  const int reps = static_cast<int>(IntFlag(argc, argv, "reps", 5));
  const int n = static_cast<int>(IntFlag(argc, argv, "n", 220));
  const int64_t xmark_scale = IntFlag(argc, argv, "xmark-scale", 32);

  Banner("Generic join: output-heavy mix");

  std::vector<Record> records;

  {
    // Dense triangle: ~n^2/2 rows per relation, many closing wedges.
    Relation r = MakeBinary("A", "B", n, 7, 2);
    Relation s = MakeBinary("B", "C", n, 5, 2);
    Relation t = MakeBinary("A", "C", n, 3, 2);
    auto tr = RelationTrie::Build(r, {"A", "B"});
    auto ts = RelationTrie::Build(s, {"B", "C"});
    auto tt = RelationTrie::Build(t, {"A", "C"});
    auto ir = tr->NewIterator();
    auto is = ts->NewIterator();
    auto it = tt->NewIterator();
    std::vector<JoinInput> inputs{{"R", {"A", "B"}, ir.get()},
                                  {"S", {"B", "C"}, is.get()},
                                  {"T", {"A", "C"}, it.get()}};
    records.push_back(
        BenchGenericJoin("triangle", inputs, {"A", "B", "C"}, reps));
  }

  {
    // Two-hop path: the C level is covered by S alone, so the engine
    // drains it with bulk copies out of the span.
    Relation r = MakeBinary("A", "B", n, 3, 3);
    Relation s = MakeBinary("B", "C", n, 5, 3);
    auto tr = RelationTrie::Build(r, {"A", "B"});
    auto ts = RelationTrie::Build(s, {"B", "C"});
    auto ir = tr->NewIterator();
    auto is = ts->NewIterator();
    std::vector<JoinInput> inputs{{"R", {"A", "B"}, ir.get()},
                                  {"S", {"B", "C"}, is.get()}};
    records.push_back(BenchGenericJoin("path2", inputs, {"A", "B", "C"}, reps));
  }

  records.push_back(BenchXMark(xmark_scale, reps));

  Table table({"workload", "time", "|Q|", "seeks"});
  for (const Record& r : records) {
    table.AddRow({r.workload, FmtSeconds(r.seconds), FmtInt(r.rows),
                  FmtInt(r.seeks)});
  }
  table.Print();
}

}  // namespace
}  // namespace xjoin::bench

int main(int argc, char** argv) {
  xjoin::bench::Run(argc, argv);
  return 0;
}
