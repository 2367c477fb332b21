// Prepared-plan pipeline: cold one-shot execution (prepare + pin +
// execute every time) vs warm prepared re-execution (PrepareXJoin
// once, ExecutePlan per request) on the paper and XMark workloads, plus
// the full database serving path (text -> plan cache -> ExecutePlan) on
// a trie-build-heavy relational join. Warm results are checked byte-identical to cold before timings
// are trusted.
//
// Flags: --reps=5            best-of repetitions per measurement
//        --paper-n=8         paper instance per-tag population
//        --xmark-scale=1     XMark size multiplier
//        --json=PATH         also write the records to PATH
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "core/database.h"
#include "workload/paper_example.h"
#include "workload/xmark.h"

namespace xjoin::bench {
namespace {

struct Record {
  std::string workload;
  double cold_s = 0.0;
  double prepare_s = 0.0;
  double warm_s = 0.0;
  int64_t rows = 0;
};

// Cold = ExecuteXJoin (prepare + pin + execute, private trie builds
// each time); warm = ExecutePlan over one prepared plan.
Record BenchQuery(const std::string& label, const MultiModelQuery& query,
                  int reps) {
  Record record;
  record.workload = label;

  std::vector<Tuple> expected;
  for (int rep = 0; rep < reps; ++rep) {
    Timer timer;
    auto result = ExecuteXJoin(query);
    double seconds = timer.ElapsedSeconds();
    XJ_CHECK(result.ok()) << result.status().ToString();
    if (rep == 0) {
      record.cold_s = seconds;
      record.rows = static_cast<int64_t>(result->num_rows());
      expected = result->ToTuples();
    } else {
      record.cold_s = std::min(record.cold_s, seconds);
    }
  }

  Timer prepare_timer;
  auto plan = PrepareXJoin(query);
  record.prepare_s = prepare_timer.ElapsedSeconds();
  XJ_CHECK(plan.ok()) << plan.status().ToString();
  for (int rep = 0; rep < reps; ++rep) {
    Timer timer;
    auto result = ExecutePlan(**plan);
    double seconds = timer.ElapsedSeconds();
    XJ_CHECK(result.ok()) << result.status().ToString();
    XJ_CHECK(result->ToTuples() == expected)
        << label << ": prepared execution diverged from cold execution";
    record.warm_s = rep == 0 ? seconds : std::min(record.warm_s, seconds);
  }
  return record;
}

// The full serving path, one session per request: cold flushes the
// plan + trie caches before every Session::Query (text parse, order
// selection, shard planning, trie builds); warm replays the cached
// plan.
Record BenchDatabase(int reps) {
  Record record;
  record.workload = "db-text";

  MultiModelDatabase db;
  std::string r_csv = "A,B\n";
  for (int i = 0; i < 20000; ++i) {
    r_csv += std::to_string(i % 500) + "," + std::to_string((i * 7) % 1000) +
             "\n";
  }
  std::string s_csv = "B,C\n";
  for (int j = 0; j < 1000; ++j) {
    s_csv += std::to_string(j) + "," + std::to_string(j % 50) + "\n";
  }
  XJ_CHECK(db.RegisterRelationCsv("R", r_csv).ok());
  XJ_CHECK(db.RegisterRelationCsv("S", s_csv).ok());
  const std::string query = "Q(*) := R, S";

  std::vector<Tuple> expected;
  for (int rep = 0; rep < reps; ++rep) {
    db.ClearPlanCache();
    db.ClearTrieCache();
    Timer timer;
    auto result = db.OpenSession().Query(query);
    double seconds = timer.ElapsedSeconds();
    XJ_CHECK(result.ok()) << result.status().ToString();
    if (rep == 0) {
      record.cold_s = seconds;
      record.rows = static_cast<int64_t>(result->num_rows());
      expected = result->ToTuples();
    } else {
      record.cold_s = std::min(record.cold_s, seconds);
    }
  }

  Timer prepare_timer;
  XJ_CHECK(db.OpenSession().Prepare(query).ok());
  record.prepare_s = prepare_timer.ElapsedSeconds();
  for (int rep = 0; rep < reps; ++rep) {
    Timer timer;
    auto result = db.OpenSession().Query(query);
    double seconds = timer.ElapsedSeconds();
    XJ_CHECK(result.ok()) << result.status().ToString();
    XJ_CHECK(result->ToTuples() == expected)
        << "db-text: cached-plan execution diverged from cold execution";
    record.warm_s = rep == 0 ? seconds : std::min(record.warm_s, seconds);
  }
  XJ_CHECK(db.cache_stats().plan_hits >= reps)
      << "plan cache did not serve hits";
  return record;
}

void Run(int argc, char** argv) {
  const int reps = static_cast<int>(IntFlag(argc, argv, "reps", 5));
  const int64_t paper_n = IntFlag(argc, argv, "paper-n", 8);
  const int64_t xmark_scale = IntFlag(argc, argv, "xmark-scale", 1);
  const char* json_path = FlagValue(argc, argv, "json");

  Banner("Plan cache: cold one-shot vs warm prepared execution");

  std::vector<Record> records;

  PaperInstance paper = MakePaperInstance(paper_n, PaperSchema::kExample34,
                                          PaperDataMode::kAdversarial);
  records.push_back(BenchQuery("paper", paper.Query(), reps));

  XMarkOptions xmark_options;
  xmark_options.num_items = 200 * xmark_scale;
  xmark_options.num_persons = 100 * xmark_scale;
  xmark_options.num_open_auctions = 120 * xmark_scale;
  xmark_options.num_closed_auctions = 100 * xmark_scale;
  XMarkInstance xmark = MakeXMark(xmark_options);
  records.push_back(BenchQuery("xmark", xmark.ClosedAuctionQuery(), reps));

  records.push_back(BenchDatabase(reps));

  Table table({"workload", "cold", "prepare (once)", "warm", "speedup",
               "|Q|"});
  for (const Record& r : records) {
    table.AddRow({r.workload, FmtSeconds(r.cold_s), FmtSeconds(r.prepare_s),
                  FmtSeconds(r.warm_s), FmtRatio(r.cold_s, r.warm_s),
                  FmtInt(r.rows)});
  }
  table.Print();

  JsonArrayWriter json;
  for (const Record& r : records) {
    json.BeginObject()
        .Field("workload", r.workload)
        .Field("cold_s", r.cold_s, 6)
        .Field("prepare_s", r.prepare_s, 6)
        .Field("warm_s", r.warm_s, 6)
        .Field("speedup", r.warm_s > 0 ? r.cold_s / r.warm_s : 0, 2)
        .Field("rows", r.rows);
  }
  json.Emit(json_path);
}

}  // namespace
}  // namespace xjoin::bench

int main(int argc, char** argv) {
  xjoin::bench::Run(argc, argv);
  return 0;
}
