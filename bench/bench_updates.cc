// Incremental maintenance under an interleaved update/query stream:
// the delta path (ApplyRelationDelta — cached tries patched in place,
// plans re-pinned across version bumps) vs the invalidate-everything
// baseline (UpdateRelation with a full rebuilt relation of the same
// logical contents). Both databases consume the SAME random stream and
// every round's query is checked byte-identical between them before
// the timings are trusted; cache counters prove the delta side took
// the incremental route (patches, zero post-warmup trie builds)
// rather than winning by accident.
//
// Flags: --rows=20000             initial rows in R (S is rows/20)
//        --rounds=40              update/query rounds per mode
//        --updates-per-round=16   inserts+deletes per round
//        --threads=1              engine threads for the probe query
//        --json=PATH              also write the records to PATH
#include <algorithm>
#include <cstdio>
#include <iterator>
#include <set>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "common/random.h"
#include "core/database.h"

namespace xjoin::bench {
namespace {

struct StreamRound {
  RelationDelta delta;          // what the delta side applies
  std::vector<Tuple> contents;  // full oracle contents after the round
};

struct Record {
  std::string mode;
  double update_s = 0.0;
  double query_s = 0.0;
  int64_t trie_builds = 0;   // trie-cache misses after warmup
  int64_t trie_patches = 0;
  int64_t trie_compactions = 0;
  int64_t plan_rebinds = 0;
  int64_t plan_misses = 0;
};

Relation MakeRelation(const Schema& schema, const std::vector<Tuple>& rows) {
  auto rel = Relation::FromTuples(schema, rows);
  XJ_CHECK(rel.ok()) << rel.status().ToString();
  return *std::move(rel);
}

// Pre-generates the whole stream so both modes replay identical work.
std::vector<StreamRound> MakeStream(Rng* rng, std::set<Tuple>* oracle,
                                    int rounds, int updates_per_round,
                                    int64_t domain) {
  std::vector<StreamRound> stream;
  stream.reserve(static_cast<size_t>(rounds));
  for (int r = 0; r < rounds; ++r) {
    StreamRound round;
    for (int u = 0; u < updates_per_round; ++u) {
      if (!oracle->empty() && rng->NextBernoulli(0.4)) {
        auto it = oracle->begin();
        std::advance(it, static_cast<long>(rng->NextBounded(oracle->size())));
        round.delta.deletes.push_back(*it);
        oracle->erase(it);
      } else {
        Tuple t = {rng->NextInRange(0, domain - 1),
                   rng->NextInRange(0, domain - 1)};
        if (oracle->insert(t).second) round.delta.inserts.push_back(t);
      }
    }
    round.contents.assign(oracle->begin(), oracle->end());
    stream.push_back(std::move(round));
  }
  return stream;
}

Record RunMode(bool use_delta, const std::vector<Tuple>& r0,
               const std::vector<Tuple>& s_rows,
               const std::vector<StreamRound>& stream, int threads,
               std::vector<std::vector<Tuple>>* results) {
  Record record;
  record.mode = use_delta ? "delta" : "rebuild";

  auto r_schema = Schema::Make({"A", "B"});
  auto s_schema = Schema::Make({"B", "C"});
  XJ_CHECK(r_schema.ok() && s_schema.ok());
  MultiModelDatabase db;
  XJ_CHECK(db.RegisterRelation("R", MakeRelation(*r_schema, r0)).ok());
  XJ_CHECK(db.RegisterRelation("S", MakeRelation(*s_schema, s_rows)).ok());

  const std::string query = "Q(*) := R, S";
  QueryOptions options;
  options.xjoin.attribute_order = {"B", "A", "C"};
  options.xjoin.num_threads = threads;

  // Warm the plan + trie caches, then baseline the counters: every
  // trie-cache miss from here on is a from-scratch rebuild caused by
  // the update path.
  XJ_CHECK(db.OpenSession().Query(query, options).ok());
  const CacheStats warm = db.cache_stats();

  results->reserve(stream.size());
  for (const StreamRound& round : stream) {
    Timer update_timer;
    if (use_delta) {
      XJ_CHECK(db.ApplyRelationDelta("R", round.delta).ok());
    } else {
      XJ_CHECK(
          db.UpdateRelation("R", MakeRelation(*r_schema, round.contents))
              .ok());
    }
    record.update_s += update_timer.ElapsedSeconds();

    Timer query_timer;
    auto result = db.OpenSession().Query(query, options);
    record.query_s += query_timer.ElapsedSeconds();
    XJ_CHECK(result.ok()) << result.status().ToString();
    results->push_back(result->ToTuples());
  }

  CacheStats stats = db.cache_stats();
  record.trie_builds = stats.trie_misses - warm.trie_misses;
  record.trie_patches = stats.trie_patches - warm.trie_patches;
  record.trie_compactions = stats.trie_compactions - warm.trie_compactions;
  record.plan_rebinds = stats.plan_rebinds - warm.plan_rebinds;
  record.plan_misses = stats.plan_misses - warm.plan_misses;
  return record;
}

void Run(int argc, char** argv) {
  const int64_t rows = IntFlag(argc, argv, "rows", 20000);
  const int rounds = static_cast<int>(IntFlag(argc, argv, "rounds", 40));
  const int updates_per_round =
      static_cast<int>(IntFlag(argc, argv, "updates-per-round", 16));
  const int threads = static_cast<int>(IntFlag(argc, argv, "threads", 1));
  const char* json_path = FlagValue(argc, argv, "json");

  Banner("Incremental maintenance: delta patching vs full invalidation");

  // R over a domain that keeps the join selective; S is small, static,
  // and sparse in B so the probe query's own output stays tiny — the
  // per-round cost difference is then dominated by what the update
  // path does to R's trie (patch vs full rebuild).
  const int64_t domain = rows;  // ~63% occupancy after dedup
  Rng rng(42);
  std::set<Tuple> oracle;
  for (int64_t i = 0; i < rows; ++i) {
    oracle.insert({rng.NextInRange(0, domain - 1),
                   rng.NextInRange(0, domain - 1)});
  }
  const std::vector<Tuple> r0(oracle.begin(), oracle.end());
  std::vector<Tuple> s_rows;
  for (int64_t j = 0; j < std::max<int64_t>(rows / 200, 8); ++j) {
    s_rows.push_back({(j * 173) % domain, j % 50});
  }
  std::sort(s_rows.begin(), s_rows.end());
  s_rows.erase(std::unique(s_rows.begin(), s_rows.end()), s_rows.end());
  const std::vector<StreamRound> stream =
      MakeStream(&rng, &oracle, rounds, updates_per_round, domain);

  std::vector<std::vector<Tuple>> delta_results, rebuild_results;
  Record delta =
      RunMode(true, r0, s_rows, stream, threads, &delta_results);
  Record rebuild =
      RunMode(false, r0, s_rows, stream, threads, &rebuild_results);

  // Differential gate: every round byte-identical across the modes.
  XJ_CHECK(delta_results.size() == rebuild_results.size());
  for (size_t i = 0; i < delta_results.size(); ++i) {
    XJ_CHECK(delta_results[i] == rebuild_results[i])
        << "round " << i << ": delta path diverged from full rebuild";
  }
  // Counter gate: the delta side must have actually patched (never
  // rebuilt a trie post-warmup) and kept its plans across versions.
  XJ_CHECK(delta.trie_builds == 0)
      << "delta mode rebuilt " << delta.trie_builds << " tries";
  XJ_CHECK(delta.trie_patches >= static_cast<int64_t>(stream.size()));
  XJ_CHECK(delta.plan_misses == 0);
  XJ_CHECK(rebuild.trie_builds > 0);

  Table table({"mode", "update total", "query total", "trie builds",
               "patches", "compactions", "plan rebinds"});
  for (const Record& r : {delta, rebuild}) {
    table.AddRow({r.mode, FmtSeconds(r.update_s), FmtSeconds(r.query_s),
                  FmtInt(r.trie_builds), FmtInt(r.trie_patches),
                  FmtInt(r.trie_compactions), FmtInt(r.plan_rebinds)});
  }
  table.Print();
  // The baseline's trie rebuild is lazy (first query after the
  // invalidation pays it), so the honest comparison is the full
  // update+query round trip.
  std::printf("round-trip speedup (rebuild/delta): %s\n",
              FmtRatio(rebuild.update_s + rebuild.query_s,
                       delta.update_s + delta.query_s)
                  .c_str());

  JsonArrayWriter json;
  for (const Record& r : {delta, rebuild}) {
    json.BeginObject()
        .Field("mode", r.mode)
        .Field("rows", rows)
        .Field("rounds", static_cast<int64_t>(rounds))
        .Field("updates_per_round", static_cast<int64_t>(updates_per_round))
        .Field("threads", static_cast<int64_t>(threads))
        .Field("update_s", r.update_s, 6)
        .Field("query_s", r.query_s, 6)
        .Field("trie_builds", r.trie_builds)
        .Field("trie_patches", r.trie_patches)
        .Field("trie_compactions", r.trie_compactions)
        .Field("plan_rebinds", r.plan_rebinds);
  }
  json.Emit(json_path);
}

}  // namespace
}  // namespace xjoin::bench

int main(int argc, char** argv) {
  xjoin::bench::Run(argc, argv);
  return 0;
}
