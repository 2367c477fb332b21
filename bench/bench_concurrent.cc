// Serving benchmark: N writer threads flip relations copy-on-swap while
// M reader threads open sessions and run the same join, measuring
// throughput and latency percentiles per (readers, writers, shards)
// configuration. Every reader result is verified byte-identical to the
// serially precomputed result for the snapshot it observed — a reader
// that sees a torn mix of relation versions fails the whole bench.
//
//   bench_concurrent --readers=1,2,4 --writers=0,2 --shards=1,4
//                    --iters=20 --rows=600 --json=BENCH_concurrent.json
//
// Robustness mode: --cancel-rate=<pct> makes that percentage of reader
// queries race a canceller thread (outcomes must be the exact result or
// a clean kCancelled), and --tenants=<n> routes readers through n
// deliberately small tenant pools so admission queueing/rejection is
// exercised under load (typed kResourceExhausted counts as a healthy
// outcome, anything else fails the bench):
//
//   bench_concurrent --readers=4 --writers=2 --cancel-rate=30 --tenants=2
//                    --json=BENCH_robustness.json
//
// Network mode: --net serves the same database through the framed-
// socket front-end on a loopback port and drives it with M concurrent
// retrying clients per configuration, measuring end-to-end request
// latency percentiles plus shed/retry counts. Every response is
// verified against the serially precomputed rows; shed requests must
// be absorbed by client retries (a request that exhausts its retry
// budget fails the bench):
//
//   bench_concurrent --net --clients=1,2,4,8 --iters=40
//                    --json=BENCH_net.json
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "core/database.h"
#include "net/client.h"
#include "net/server.h"
#include "relational/csv.h"

namespace xjoin::bench {
namespace {

// CSV for a two-column relation whose rows are (i + offset,
// (i + offset) % mod) for i in [0, n). Variants with different offsets
// share the join-key range, so every version combination joins.
std::string MakeCsv(const std::string& a, const std::string& b, int n,
                    int mod, int offset) {
  std::string csv = a + "," + b + "\n";
  for (int i = 0; i < n; ++i) {
    csv += std::to_string(i + offset) + "," +
           std::to_string((i + offset) % mod) + "\n";
  }
  return csv;
}

struct Record {
  int readers = 0;
  int writers = 0;
  int shards = 0;
  int cancel_rate = 0;
  int tenants = 0;
  int64_t queries = 0;
  int64_t updates = 0;
  int64_t cancelled = 0;
  int64_t rejected = 0;
  double seconds = 0.0;
  double qps = 0.0;
  double p50_ms = 0.0;
  double p95_ms = 0.0;
  double p99_ms = 0.0;
};

double PercentileMs(std::vector<double>& sorted_seconds, double q) {
  if (sorted_seconds.empty()) return 0.0;
  size_t rank = static_cast<size_t>(q * (sorted_seconds.size() - 1));
  return sorted_seconds[rank] * 1e3;
}

// One (readers, writers, shards) configuration. Writers keep the
// invariant "relation version even <=> contents variant 0", so a reader
// can map the version parities its snapshot reports to one of four
// serially precomputed expected results.
Record RunConfig(int readers, int writers, int shards, int iters, int rows,
                 int cancel_rate, int tenants, const std::string& query) {
  MultiModelDatabase db;
  XJ_CHECK(db.RegisterRelationCsv("R", MakeCsv("A", "B", rows, 30, 0)).ok());
  XJ_CHECK(db.RegisterRelationCsv("S", MakeCsv("B", "C", rows, 30, 0)).ok());

  // Robustness mode: small pools so saturation/queueing actually occurs
  // at bench concurrency (typed rejections are counted, not failures).
  for (int t = 0; t < tenants; ++t) {
    TenantPoolOptions popt;
    popt.max_concurrent = 2;
    popt.max_queue_depth = 4;
    popt.queue_deadline_micros = 20 * 1000;
    XJ_CHECK(db.CreateTenantPool("t" + std::to_string(t), popt).ok());
  }

  auto parse = [&](const std::string& csv) {
    auto rel = ReadCsv(csv, CsvOptions{}, db.mutable_dictionary());
    XJ_CHECK(rel.ok()) << rel.status().ToString();
    return *std::move(rel);
  };
  const Relation r0 = parse(MakeCsv("A", "B", rows, 30, 0));
  const Relation r1 = parse(MakeCsv("A", "B", rows, 30, 1000000));
  const Relation s0 = parse(MakeCsv("B", "C", rows, 30, 0));
  const Relation s1 = parse(MakeCsv("B", "C", rows, 30, 1000000));

  // expected[r parity][s parity], computed serially. The update walk
  // ends back at contents 0 with both versions even, re-establishing
  // the invariant before the concurrent phase starts.
  std::vector<Tuple> expected[2][2];
  auto snapshot_tuples = [&]() {
    auto result = db.OpenSession().Query(query);
    XJ_CHECK(result.ok()) << result.status().ToString();
    return result->ToTuples();
  };
  expected[0][0] = snapshot_tuples();
  XJ_CHECK(db.UpdateRelation("S", Relation(s1)).ok());  // S v1
  expected[0][1] = snapshot_tuples();
  XJ_CHECK(db.UpdateRelation("R", Relation(r1)).ok());  // R v1
  expected[1][1] = snapshot_tuples();
  XJ_CHECK(db.UpdateRelation("S", Relation(s0)).ok());  // S v2
  expected[1][0] = snapshot_tuples();
  XJ_CHECK(db.UpdateRelation("R", Relation(r0)).ok());  // R v2

  // Per-relation serialization so concurrent writers can share a
  // relation without breaking the version <=> contents mapping.
  struct WriteTarget {
    const char* name;
    const Relation* variant[2];
    std::mutex mu;
    uint64_t flips = 0;
  };
  WriteTarget targets[2];
  targets[0].name = "R";
  targets[0].variant[0] = &r0;
  targets[0].variant[1] = &r1;
  targets[1].name = "S";
  targets[1].variant[0] = &s0;
  targets[1].variant[1] = &s1;

  std::atomic<bool> stop{false};
  std::atomic<int64_t> mismatches{0};
  std::atomic<int64_t> updates{0};
  std::atomic<int64_t> cancelled{0};
  std::atomic<int64_t> rejected{0};
  std::vector<std::vector<double>> latencies(readers);
  for (auto& v : latencies) v.reserve(iters);

  std::vector<std::thread> threads;
  threads.reserve(writers + readers);
  for (int w = 0; w < writers; ++w) {
    threads.emplace_back([&, w] {
      WriteTarget& target = targets[w % 2];
      while (!stop.load(std::memory_order_relaxed)) {
        std::lock_guard<std::mutex> lock(target.mu);
        ++target.flips;
        const Relation& next = *target.variant[target.flips % 2];
        if (!db.UpdateRelation(target.name, Relation(next)).ok()) {
          mismatches.fetch_add(1);
          return;
        }
        updates.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }

  Timer wall;
  for (int r = 0; r < readers; ++r) {
    threads.emplace_back([&, r] {
      for (int i = 0; i < iters; ++i) {
        Session session = db.OpenSession();
        auto rv = session.relation_version("R");
        auto sv = session.relation_version("S");
        if (!rv.ok() || !sv.ok()) {
          mismatches.fetch_add(1);
          return;
        }
        QueryOptions options;
        options.xjoin.num_threads = shards;
        if (tenants > 0) options.tenant = "t" + std::to_string(r % tenants);
        // Deterministic per-(reader, iteration) cancel schedule: the
        // canceller races the query after a short staggered delay.
        const bool race_cancel =
            cancel_rate > 0 && (r * 7919 + i * 104729) % 100 < cancel_rate;
        CancellationToken token;
        std::thread canceller;
        if (race_cancel) {
          options.cancel = &token;
          if ((r + i) % 2 == 0) {
            // Half the cancels land before the query starts (the typed
            // kCancelled path is exercised even when queries finish in
            // microseconds); the other half genuinely race it.
            token.Cancel("bench canceller");
          } else {
            canceller = std::thread([&token, r, i] {
              std::this_thread::sleep_for(
                  std::chrono::microseconds((r * 131 + i * 53) % 400));
              token.Cancel("bench canceller");
            });
          }
        }
        Timer timer;
        auto result = session.Query(query, options);
        double seconds = timer.ElapsedSeconds();
        if (canceller.joinable()) canceller.join();
        if (result.ok()) {
          if (result->ToTuples() != expected[*rv % 2][*sv % 2]) {
            mismatches.fetch_add(1);
            return;
          }
          latencies[r].push_back(seconds);
        } else if (race_cancel &&
                   result.status().code() == StatusCode::kCancelled) {
          cancelled.fetch_add(1, std::memory_order_relaxed);
        } else if (tenants > 0 && result.status().code() ==
                                      StatusCode::kResourceExhausted) {
          rejected.fetch_add(1, std::memory_order_relaxed);
        } else {
          mismatches.fetch_add(1);  // untyped failure: fail the bench
          return;
        }
      }
    });
  }

  // Readers run a fixed iteration count; writers flip until the last
  // reader finishes (or immediately when writers == 0).
  for (size_t t = writers; t < threads.size(); ++t) threads[t].join();
  double seconds = wall.ElapsedSeconds();
  stop.store(true);
  for (int w = 0; w < writers; ++w) threads[w].join();

  XJ_CHECK(mismatches.load() == 0)
      << "readers=" << readers << " writers=" << writers
      << " shards=" << shards << ": " << mismatches.load()
      << " reader(s) saw a result that matches no consistent snapshot";

  std::vector<double> all;
  for (const auto& v : latencies) all.insert(all.end(), v.begin(), v.end());
  std::sort(all.begin(), all.end());

  Record record;
  record.readers = readers;
  record.writers = writers;
  record.shards = shards;
  record.cancel_rate = cancel_rate;
  record.tenants = tenants;
  record.queries = static_cast<int64_t>(all.size());
  record.updates = updates.load();
  record.cancelled = cancelled.load();
  record.rejected = rejected.load();
  record.seconds = seconds;
  record.qps = seconds > 0 ? static_cast<double>(all.size()) / seconds : 0.0;
  record.p50_ms = PercentileMs(all, 0.50);
  record.p95_ms = PercentileMs(all, 0.95);
  record.p99_ms = PercentileMs(all, 0.99);
  return record;
}

struct NetRecord {
  int clients = 0;
  int max_inflight = 0;
  int64_t queries = 0;
  int64_t retries = 0;
  int64_t shed = 0;
  int64_t reconnects = 0;
  double seconds = 0.0;
  double qps = 0.0;
  double p50_ms = 0.0;
  double p95_ms = 0.0;
  double p99_ms = 0.0;
};

// One --net configuration: a live loopback server with a deliberately
// small in-flight ceiling, hammered by `clients` retrying clients.
// Latency is end-to-end per request, retries included.
NetRecord RunNetConfig(int clients, int iters, int rows,
                       const std::string& query) {
  MultiModelDatabase db;
  XJ_CHECK(db.RegisterRelationCsv("R", MakeCsv("A", "B", rows, 30, 0)).ok());
  XJ_CHECK(db.RegisterRelationCsv("S", MakeCsv("B", "C", rows, 30, 0)).ok());

  const auto expected = [&] {
    auto result = db.OpenSession().Query(query);
    XJ_CHECK(result.ok()) << result.status().ToString();
    const Relation& rel = *result;
    const Dictionary& dict = db.dictionary();
    std::vector<std::vector<std::string>> rows_out;
    for (size_t r = 0; r < rel.num_rows(); ++r) {
      std::vector<std::string> row;
      for (size_t c = 0; c < rel.num_columns(); ++c) {
        const int64_t code = rel.at(r, c);
        row.push_back(dict.Contains(code) ? dict.Decode(code)
                                          : "#" + std::to_string(code));
      }
      rows_out.push_back(std::move(row));
    }
    return rows_out;
  }();

  net::ServerOptions sopt;
  sopt.num_workers = 2;
  // Half the client count (min 1): the higher configurations overload
  // the ceiling on purpose so shedding and retry-hint behavior shows up
  // in the numbers instead of only in tests.
  sopt.max_inflight = std::max(1, clients / 2);
  net::XJoinServer server(&db, sopt);
  XJ_CHECK(server.Start().ok());

  std::atomic<int64_t> mismatches{0};
  std::atomic<int64_t> retries{0};
  std::atomic<int64_t> reconnects{0};
  std::vector<std::vector<double>> latencies(clients);
  for (auto& v : latencies) v.reserve(iters);

  Timer wall;
  std::vector<std::thread> threads;
  threads.reserve(clients);
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      net::ClientOptions copt;
      copt.port = server.port();
      copt.max_attempts = 12;
      copt.backoff_base_micros = 200;
      copt.backoff_cap_micros = 10'000;
      copt.jitter_seed = static_cast<uint64_t>(c + 1);
      net::XJoinClient client(copt);
      net::QueryRequest request;
      request.text = query;
      for (int i = 0; i < iters; ++i) {
        Timer timer;
        auto result = client.Query(request);
        const double seconds = timer.ElapsedSeconds();
        if (!result.ok() || result->rows != expected) {
          mismatches.fetch_add(1);
          return;
        }
        latencies[c].push_back(seconds);
      }
      retries.fetch_add(client.stats().retries, std::memory_order_relaxed);
      reconnects.fetch_add(client.stats().reconnects,
                           std::memory_order_relaxed);
    });
  }
  for (auto& t : threads) t.join();
  const double seconds = wall.ElapsedSeconds();

  XJ_CHECK(mismatches.load() == 0)
      << "clients=" << clients << ": " << mismatches.load()
      << " request(s) failed or returned wrong rows over the wire";

  const net::ServerStats stats = server.stats();
  server.Shutdown();

  std::vector<double> all;
  for (const auto& v : latencies) all.insert(all.end(), v.begin(), v.end());
  std::sort(all.begin(), all.end());

  NetRecord record;
  record.clients = clients;
  record.max_inflight = sopt.max_inflight;
  record.queries = static_cast<int64_t>(all.size());
  record.retries = retries.load();
  record.shed = stats.shed_inflight + stats.shed_draining +
                stats.rejected_conn_limit;
  record.reconnects = reconnects.load();
  record.seconds = seconds;
  record.qps = seconds > 0 ? static_cast<double>(all.size()) / seconds : 0.0;
  record.p50_ms = PercentileMs(all, 0.50);
  record.p95_ms = PercentileMs(all, 0.95);
  record.p99_ms = PercentileMs(all, 0.99);
  return record;
}

void RunNet(int argc, char** argv) {
  const std::vector<int> clients =
      IntListFlag(argc, argv, "clients", {1, 2, 4, 8});
  const int iters = static_cast<int>(IntFlag(argc, argv, "iters", 40));
  const int rows = static_cast<int>(IntFlag(argc, argv, "rows", 600));
  const std::string query = "Q(A, B, C) := R, S";

  Banner("Network front-end: retrying clients vs a shedding loopback "
         "server");

  std::vector<NetRecord> records;
  for (int c : clients) records.push_back(RunNetConfig(c, iters, rows, query));

  Table table({"clients", "inflight_cap", "queries", "retries", "shed",
               "reconnects", "qps", "p50", "p95", "p99"});
  for (const NetRecord& r : records) {
    table.AddRow({FmtInt(r.clients), FmtInt(r.max_inflight),
                  FmtInt(r.queries), FmtInt(r.retries), FmtInt(r.shed),
                  FmtInt(r.reconnects), FmtF(r.qps, 0),
                  FmtSeconds(r.p50_ms / 1e3), FmtSeconds(r.p95_ms / 1e3),
                  FmtSeconds(r.p99_ms / 1e3)});
  }
  table.Print();
  std::printf("\nAll %zu configurations returned byte-identical rows over "
              "the wire; every shed request was absorbed by client "
              "retries.\n",
              records.size());

  JsonArrayWriter json;
  for (const NetRecord& r : records) {
    json.BeginObject()
        .Field("clients", r.clients)
        .Field("max_inflight", r.max_inflight)
        .Field("queries", r.queries)
        .Field("retries", r.retries)
        .Field("shed", r.shed)
        .Field("reconnects", r.reconnects)
        .Field("seconds", r.seconds, 6)
        .Field("qps", r.qps, 1)
        .Field("p50_ms", r.p50_ms, 3)
        .Field("p95_ms", r.p95_ms, 3)
        .Field("p99_ms", r.p99_ms, 3);
  }
  json.Emit(FlagValue(argc, argv, "json"));
}

void Run(int argc, char** argv) {
  // Bare "--net" (or "--net=1") switches to the loopback serving bench.
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--net" || arg.rfind("--net=", 0) == 0) {
      RunNet(argc, argv);
      return;
    }
  }
  const std::vector<int> readers = IntListFlag(argc, argv, "readers",
                                               {1, 2, 4});
  const std::vector<int> writers = IntListFlag(argc, argv, "writers", {0, 2});
  const std::vector<int> shards = IntListFlag(argc, argv, "shards", {1, 4});
  const int iters = static_cast<int>(IntFlag(argc, argv, "iters", 20));
  const int rows = static_cast<int>(IntFlag(argc, argv, "rows", 600));
  const int cancel_rate =
      static_cast<int>(IntFlag(argc, argv, "cancel-rate", 0));
  const int tenants = static_cast<int>(IntFlag(argc, argv, "tenants", 0));
  const std::string query = "Q(A, B, C) := R, S";

  Banner(cancel_rate > 0 || tenants > 0
             ? "Serving core: concurrent sessions under cancellation and "
               "tenant admission"
             : "Serving core: concurrent sessions vs copy-on-swap writers");

  std::vector<Record> records;
  for (int m : readers) {
    for (int n : writers) {
      for (int s : shards) {
        records.push_back(
            RunConfig(m, n, s, iters, rows, cancel_rate, tenants, query));
      }
    }
  }

  Table table({"readers", "writers", "shards", "queries", "updates",
               "cancelled", "rejected", "qps", "p50", "p95", "p99"});
  for (const Record& r : records) {
    table.AddRow({FmtInt(r.readers), FmtInt(r.writers), FmtInt(r.shards),
                  FmtInt(r.queries), FmtInt(r.updates), FmtInt(r.cancelled),
                  FmtInt(r.rejected), FmtF(r.qps, 0),
                  FmtSeconds(r.p50_ms / 1e3), FmtSeconds(r.p95_ms / 1e3),
                  FmtSeconds(r.p99_ms / 1e3)});
  }
  table.Print();
  std::printf("\nAll %zu configurations returned byte-identical results (or "
              "typed cancel/admission errors) for their snapshots.\n",
              records.size());

  JsonArrayWriter json;
  for (const Record& r : records) {
    json.BeginObject()
        .Field("readers", r.readers)
        .Field("writers", r.writers)
        .Field("shards", r.shards)
        .Field("cancel_rate", r.cancel_rate)
        .Field("tenants", r.tenants)
        .Field("queries", r.queries)
        .Field("updates", r.updates)
        .Field("cancelled", r.cancelled)
        .Field("rejected", r.rejected)
        .Field("seconds", r.seconds, 6)
        .Field("qps", r.qps, 1)
        .Field("p50_ms", r.p50_ms, 3)
        .Field("p95_ms", r.p95_ms, 3)
        .Field("p99_ms", r.p99_ms, 3);
  }
  json.Emit(FlagValue(argc, argv, "json"));
}

}  // namespace
}  // namespace xjoin::bench

int main(int argc, char** argv) {
  xjoin::bench::Run(argc, argv);
  return 0;
}
