// EXPLAIN: render a query's prepared execution plan without (and then
// with) running it.
//
// Registers the paper's Figure-1 bookstore data in a MultiModelDatabase,
// prints Session::Explain for the multi-model query — inputs with
// trie-cache provenance, transform(Sx), the expansion order with
// per-level lead rationale and chosen intersection kernel, the shard
// plan, the execution mode, and the worst-case size bound — then runs the query twice to show the
// plan cache taking over (the second EXPLAIN reports the hit and the
// pinned tries).
//
//   ./build/examples/explain
#include <cstdio>

#include "core/database.h"

int main() {
  using namespace xjoin;

  MultiModelDatabase db;
  Status status = db.RegisterRelationCsv("R",
                                         "orderID,userID\n"
                                         "10963,jack\n"
                                         "20134,tom\n"
                                         "35768,bob\n");
  if (!status.ok()) {
    std::fprintf(stderr, "register error: %s\n", status.ToString().c_str());
    return 1;
  }
  status = db.RegisterDocumentXml("invoices", R"(
      <invoices>
        <invoice><orderID>10963</orderID>
          <orderLine><ISBN>978-3-16-1</ISBN><price>30</price></orderLine>
        </invoice>
        <invoice><orderID>20134</orderID>
          <orderLine><ISBN>634-3-12-2</ISBN><price>20</price></orderLine>
        </invoice>
      </invoices>)");
  if (!status.ok()) {
    std::fprintf(stderr, "register error: %s\n", status.ToString().c_str());
    return 1;
  }

  const std::string query =
      "Q(userID, ISBN, price) := R, "
      "invoices : invoice[orderID]/orderLine[ISBN]/price";

  auto explained = db.OpenSession().Explain(query);
  if (!explained.ok()) {
    std::fprintf(stderr, "explain error: %s\n",
                 explained.status().ToString().c_str());
    return 1;
  }
  std::printf("=== EXPLAIN (cold: the plan was just prepared) ===\n\n%s\n",
              explained->c_str());

  // Run the query twice: the first execution reuses the plan EXPLAIN
  // just prepared, the second is a pure plan-cache hit.
  for (int run = 1; run <= 2; ++run) {
    Metrics metrics;
    QueryOptions options;
    options.metrics = &metrics;
    auto result = db.OpenSession().Query(query, options);
    if (!result.ok()) {
      std::fprintf(stderr, "query error: %s\n",
                   result.status().ToString().c_str());
      return 1;
    }
    std::printf(
        "run %d: %lld rows, plan cache %lld hit(s) %lld miss(es), "
        "tries built %lld\n",
        run, static_cast<long long>(result->num_rows()),
        static_cast<long long>(metrics.Get("db.plan_cache.hits")),
        static_cast<long long>(metrics.Get("db.plan_cache.misses")),
        static_cast<long long>(metrics.Get("trie.builds")));
  }

  auto warm = db.OpenSession().Explain(query);
  if (!warm.ok()) {
    std::fprintf(stderr, "explain error: %s\n",
                 warm.status().ToString().c_str());
    return 1;
  }
  std::printf("\n=== EXPLAIN (warm: served from the plan cache) ===\n\n%s",
              warm->c_str());

  // Admission counters: run one query through a tenant pool and cancel
  // another before it starts, then read the db-wide totals the warm
  // EXPLAIN above also reports on its "admission:" line.
  status = db.CreateTenantPool("bookstore");
  if (!status.ok()) {
    std::fprintf(stderr, "pool error: %s\n", status.ToString().c_str());
    return 1;
  }
  Session session = db.OpenSession();
  QueryOptions tenanted;
  tenanted.tenant = "bookstore";
  if (auto r = session.Query(query, tenanted); !r.ok()) {
    std::fprintf(stderr, "query error: %s\n", r.status().ToString().c_str());
    return 1;
  }
  CancellationToken shutdown;
  shutdown.Cancel("example shutdown");
  QueryOptions doomed;
  doomed.cancel = &shutdown;
  auto cancelled = session.Query(query, doomed);
  CacheStats stats = db.cache_stats();
  std::printf(
      "\n=== Admission (after one tenant-pool query + one cancel) ===\n\n"
      "cancelled query returned: %s\n"
      "db-wide: %lld admitted, %lld queued, %lld rejected, %lld cancelled\n",
      cancelled.status().ToString().c_str(),
      static_cast<long long>(stats.admission_admitted),
      static_cast<long long>(stats.admission_queued),
      static_cast<long long>(stats.admission_rejected),
      static_cast<long long>(stats.admission_cancelled));
  return 0;
}
