// Micro: the generic-join expansion loop at one-row blocks
// (batch_size = 1) vs full blocks (--batch), on output-heavy workloads
// where row-at-a-time materialization would dominate. Three shapes:
//
//   triangle  R(A,B) x S(B,C) x T(A,C) over dense random relations —
//             two CSR participants at the deepest level, drained
//             through the intersection kernel
//   path2     R(A,B) x S(B,C) — the deepest level has one participant,
//             so it drains as bulk copies out of the span
//   xmark     the XMark closed-auction join (XJoin end to end, lazy
//             path tries in the mix)
//
// Every batched run is checked byte-identical to the one-row run, with
// identical gj.* counters, before its timing is trusted.
//
// Flags: --reps=5          best-of repetitions per measurement
//        --n=220           triangle/path2 key domain (~n^2-row inputs)
//        --batch=1024      result-batch capacity for the batched runs
//        --xmark-scale=32  XMark size multiplier
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
  double row_s = 0.0;
  double batched_s = 0.0;
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

void CheckEquivalent(const Relation& reference, const Relation& batched,
                     const Metrics& reference_m, const Metrics& batched_m,
                     const std::string& label) {
  XJ_CHECK(reference.ToTuples() == batched.ToTuples())
      << label << ": result diverged from the reference run";
  for (const auto& [name, value] : reference_m.counters()) {
    if (name.rfind("gj.", 0) == 0) {
      XJ_CHECK(batched_m.Get(name) == value)
          << label << ": counter " << name << " diverged (reference "
          << value << ", got " << batched_m.Get(name) << ")";
    }
  }
}

// One measurement protocol for every workload: run one-row blocks
// (batch 1) and batched once, check byte-identical results and
// identical gj.* counters before trusting any timing, then take
// best-of-`reps` for both. `run` executes one configuration and returns
// (seconds, result).
using RunFn = std::function<std::pair<double, Relation>(int, Metrics*)>;

Record Measure(const std::string& label, const RunFn& run, int reps,
               int batch) {
  Record record;
  record.workload = label;

  Metrics row_m;
  auto [row_s, row_rel] = run(1, &row_m);
  record.row_s = row_s;
  Metrics batched_m;
  auto [batched_s, batched_rel] = run(batch, &batched_m);
  record.batched_s = batched_s;
  CheckEquivalent(row_rel, batched_rel, row_m, batched_m, label);
  record.rows = static_cast<int64_t>(row_rel.num_rows());
  record.seeks = row_m.Get("gj.seeks");

  for (int rep = 1; rep < reps; ++rep) {
    Metrics m;
    record.row_s = std::min(record.row_s, run(1, &m).first);
    Metrics mb;
    record.batched_s = std::min(record.batched_s, run(batch, &mb).first);
  }
  return record;
}

RunFn GenericJoinRunFn(std::vector<JoinInput> inputs,
                       std::vector<std::string> order) {
  return [inputs = std::move(inputs),
          order = std::move(order)](int batch_size, Metrics* metrics) {
    GenericJoinOptions options;
    options.attribute_order = order;
    options.batch_size = batch_size;
    options.metrics = metrics;
    Timer timer;
    auto result = GenericJoin(inputs, options);
    double seconds = timer.ElapsedSeconds();
    XJ_CHECK(result.ok()) << result.status().ToString();
    return std::make_pair(seconds, *std::move(result));
  };
}

Record BenchGenericJoin(const std::string& label,
                        const std::vector<JoinInput>& inputs,
                        std::vector<std::string> order, int reps, int batch) {
  return Measure(label, GenericJoinRunFn(inputs, std::move(order)), reps,
                 batch);
}

Record BenchXMark(int64_t scale, int reps, int batch) {
  XMarkOptions opts;
  opts.num_items = 200 * scale;
  opts.num_persons = 100 * scale;
  opts.num_open_auctions = 120 * scale;
  opts.num_closed_auctions = 100 * scale;
  XMarkInstance inst = MakeXMark(opts);
  MultiModelQuery query = inst.ClosedAuctionQuery();
  return Measure(
      "xmark.closed_auction",
      [&](int batch_size, Metrics* metrics) {
        PlanSettings settings;
        settings.batch_size = batch_size;
        EngineServices services;
        services.metrics = metrics;
        Timer timer;
        auto result = ExecuteXJoin(query, settings, services);
        double seconds = timer.ElapsedSeconds();
        XJ_CHECK(result.ok()) << result.status().ToString();
        return std::make_pair(seconds, *std::move(result));
      },
      reps, batch);
}

void Run(int argc, char** argv) {
  const int reps = static_cast<int>(IntFlag(argc, argv, "reps", 5));
  const int n = static_cast<int>(IntFlag(argc, argv, "n", 220));
  const int batch = static_cast<int>(IntFlag(argc, argv, "batch", 1024));
  const int64_t xmark_scale = IntFlag(argc, argv, "xmark-scale", 32);

  Banner("Generic join: one-row vs full blocks (output-heavy mix)");

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
        BenchGenericJoin("triangle", inputs, {"A", "B", "C"}, reps, batch));
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
    records.push_back(
        BenchGenericJoin("path2", inputs, {"A", "B", "C"}, reps, batch));
  }

  records.push_back(BenchXMark(xmark_scale, reps, batch));

  Table table({"workload", "batch=1", "batched", "speedup", "|Q|", "seeks"});
  for (const Record& r : records) {
    double speedup = r.batched_s > 0 ? r.row_s / r.batched_s : 0.0;
    table.AddRow({r.workload, FmtSeconds(r.row_s), FmtSeconds(r.batched_s),
                  FmtF(speedup, 2) + "x", FmtInt(r.rows), FmtInt(r.seeks)});
  }
  table.Print();
}

}  // namespace
}  // namespace xjoin::bench

int main(int argc, char** argv) {
  xjoin::bench::Run(argc, argv);
  return 0;
}
