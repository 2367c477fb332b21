// serve-mixed: the paper's Figure 1 bookstore data (orders relation +
// invoices XML) served by an XJoinServer over loopback. Two
// closed-loop XJoinClients send the Figure1 and Enriched queries while
// one writer applies ApplyRelationDelta batches to the orders relation
// on a fixed schedule (open loop; update latency is timed from the time
// a batch was due). Every batch toggles a fixed set of orders out or
// back in, so each answer must match one of two digests; it also adds a
// few orders no invoice references and drops older ones, so the
// orders tries accumulate delta rows and go through compaction cycles
// without changing any answer.
#include <algorithm>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/random.h"
#include "harness.h"
#include "net/client.h"
#include "net/server.h"
#include "workload/bookstore.h"

namespace xbench {

using xjoin::MultiModelDatabase;
using xjoin::Result;
using xjoin::Status;
namespace net = xjoin::net;

namespace {

// Two busy workers plus the clients, the writer and the event loop fit
// four cores; with three, outside load on the host stalled the writer
// and the update tail swung several-fold from run to run.
constexpr int kClients = 2;
constexpr int kServerWorkers = 2;
constexpr double kWriterHz = 100;
constexpr size_t kToggledOrders = 16;
// Unreferenced orders: 2 per batch, each living 600 batches. That puts
// about 1,200 pending rows on the orders tries before the first
// compaction and 4 more per batch after it, so a 30-second phase sees
// about ten compactions, fewer than 1% of the batches, and the update
// percentiles describe ordinary batches.
constexpr int kUnreferencedPerBatch = 2;
constexpr int kUnreferencedWindow = 600;
constexpr int kReplayEvery = 8;  // traced: in-process replay of every 8th

const char* const kFigure1 =
    "Q(userID, ISBN, price) := R, invoices:invoice[orderID]/orderLine[ISBN]"
    "/price";
const char* const kEnriched =
    "Q(userID, country, ISBN, genre, price) := R, Cust, Book, "
    "invoices:invoice[orderID]/orderLine[ISBN]/price";

DataText Generate(const Args& args) {
  xjoin::BookstoreOptions options;
  options.num_orders = args.tiny ? 300 : 3000;
  options.num_invoices = args.tiny ? 100 : 1000;
  options.num_users = args.tiny ? 50 : 300;
  options.num_books = args.tiny ? 20 : 100;
  options.seed = args.seed;
  xjoin::BookstoreInstance bookstore = xjoin::MakeBookstore(options);
  DataText data;
  AddRelationText(&data, "R", *bookstore.orders, *bookstore.dict);
  AddRelationText(&data, "Cust", *bookstore.customers, *bookstore.dict);
  AddRelationText(&data, "Book", *bookstore.books, *bookstore.dict);
  AddDocumentText(&data, "invoices", *bookstore.doc);
  return data;
}

using Order = std::pair<std::string, std::string>;  // orderID, userID

xjoin::Tuple Encode(MultiModelDatabase* db, const Order& order) {
  return {db->mutable_dictionary()->Intern(order.first),
          db->mutable_dictionary()->Intern(order.second)};
}

// Picks the toggled orders among those some invoice references, so
// toggling them changes both answers.
Result<std::vector<Order>> PickToggled(const MultiModelDatabase& db,
                                       uint64_t seed) {
  XJ_ASSIGN_OR_RETURN(
      xjoin::Relation referenced,
      db.OpenSession().Query(
          "Q(orderID, userID) := R, invoices:invoice[orderID]/orderLine"));
  std::vector<Order> orders;
  for (size_t r = 0; r < referenced.num_rows(); ++r) {
    orders.emplace_back(db.dictionary().Decode(referenced.at(r, 0)),
                        db.dictionary().Decode(referenced.at(r, 1)));
  }
  std::sort(orders.begin(), orders.end());
  xjoin::Rng rng(seed);
  rng.Shuffle(&orders);
  if (orders.size() > kToggledOrders) orders.resize(kToggledOrders);
  if (orders.empty()) return Status::Internal("no referenced orders");
  return orders;
}

/// The writer's schedule state, carried across phases of one run.
struct Writer {
  std::vector<Order> toggled;
  int64_t batch = 0;

  static std::string Unreferenced(int64_t batch, int i) {
    return "unref-" + std::to_string(batch) + "-" + std::to_string(i);
  }

  /// Batch k: even k deletes the toggled orders, odd k re-inserts them;
  /// every batch inserts fresh unreferenced orders and deletes those of
  /// kUnreferencedWindow batches ago.
  xjoin::RelationDelta Next(MultiModelDatabase* db) {
    xjoin::RelationDelta delta;
    auto& toggled_side = batch % 2 == 0 ? delta.deletes : delta.inserts;
    for (const Order& order : toggled) {
      toggled_side.push_back(Encode(db, order));
    }
    for (int i = 0; i < kUnreferencedPerBatch; ++i) {
      delta.inserts.push_back(Encode(db, {Unreferenced(batch, i), "user0"}));
      if (batch >= kUnreferencedWindow) {
        delta.deletes.push_back(Encode(
            db, {Unreferenced(batch - kUnreferencedWindow, i), "user0"}));
      }
    }
    ++batch;
    return delta;
  }
};

/// Database, server and clients of one set-up. Members are destroyed
/// in reverse order: clients, then the server (which drains), then the
/// database it serves.
struct Serving {
  std::unique_ptr<MultiModelDatabase> db;
  std::unique_ptr<net::XJoinServer> server;
  std::vector<std::unique_ptr<net::XJoinClient>> clients;
};

Result<std::unique_ptr<Serving>> SetUp(const DataText& data,
                                       const std::vector<Shape>& shapes,
                                       SpanBuffer* trace) {
  auto serving = std::make_unique<Serving>();
  serving->db = std::make_unique<MultiModelDatabase>();
  XJ_RETURN_NOT_OK(LoadData(data, serving->db.get(), trace));
  net::ServerOptions server_options;
  server_options.num_workers = kServerWorkers;
  server_options.query_num_threads = 1;
  server_options.max_inflight = 64;      // above the load: nothing shed
  server_options.max_connections = 64;
  serving->server = std::make_unique<net::XJoinServer>(serving->db.get(),
                                                      server_options);
  XJ_RETURN_NOT_OK(serving->server->Start());
  for (int c = 0; c < kClients; ++c) {
    net::ClientOptions client_options;
    client_options.port = serving->server->port();
    client_options.jitter_seed = static_cast<uint64_t>(c + 1);
    auto client = std::make_unique<net::XJoinClient>(client_options);
    for (const Shape& shape : shapes) {  // warm-up, checked
      net::QueryRequest request;
      request.text = shape.text;
      XJ_ASSIGN_OR_RETURN(net::QueryResultSet answer, client->Query(request));
      if (!Matches(shape, DigestResultSet(answer))) {
        return Status::Internal("warm-up digest mismatch: " + shape.text);
      }
    }
    serving->clients.push_back(std::move(client));
  }
  return serving;
}

/// One traced client request that was replayed in process.
struct Replay {
  double roundtrip_ms = 0;
  double inprocess_ms = 0;
  double encode_ms = 0;
  double decode_ms = 0;
  size_t bytes = 0;
};

struct ClientResult {
  std::vector<double> latency_ms;
  int64_t attempted = 0;
  int64_t failed = 0;
  SpanBuffer spans;
  LoopCounters counters;
  std::vector<Replay> replays;
};

struct PhaseResult {
  std::vector<ClientResult> clients;
  std::vector<double> update_ms;  ///< from due time to completion
  std::vector<double> lag_ms;     ///< how late each batch started
  int64_t updates_attempted = 0;
  int64_t updates_failed = 0;
  SpanBuffer writer_spans;
  double seconds = 0;
  int64_t queries() const {
    int64_t n = 0;
    for (const ClientResult& c : clients) {
      n += static_cast<int64_t>(c.latency_ms.size());
    }
    return n;
  }
};

void RunClient(const Serving& serving, net::XJoinClient* client, int index,
               const std::vector<Shape>& shapes, Clock::time_point deadline,
               bool traced, ClientResult* out) {
  xjoin::QueryOptions replay_options;  // what the server runs per request
  replay_options.xjoin.num_threads = 1;
  int64_t request = 0;
  while (Clock::now() < deadline) {
    const Shape& shape = shapes[static_cast<size_t>(index + request) %
                                shapes.size()];
    ++request;
    ++out->attempted;
    net::QueryRequest query;
    query.text = shape.text;
    const int32_t span =
        traced ? out->spans.Begin("net.roundtrip", request) : -1;
    const Clock::time_point start = Clock::now();
    Result<net::QueryResultSet> answer = client->Query(query);
    const Clock::time_point end = Clock::now();
    if (traced) out->spans.End(span);
    if (!answer.ok()) {
      ++out->failed;
      std::fprintf(stderr, "xbench: wire query failed: %s\n",
                   answer.status().ToString().c_str());
      continue;
    }
    if (!Matches(shape, DigestResultSet(*answer))) {
      ++out->failed;
      std::fprintf(stderr, "xbench: digest mismatch: %s\n",
                   shape.text.c_str());
      continue;
    }
    out->latency_ms.push_back(MsBetween(start, end));
    if (!traced || request % kReplayEvery != 0) continue;

    // The same request's stages, replayed outside the server: the
    // Session call, then the frame codec on the answer it served.
    Replay replay;
    replay.roundtrip_ms = MsBetween(start, end);
    Clock::time_point t0 = Clock::now();
    Result<xjoin::Relation> local =
        TracedQuery(*serving.db, shape.text, replay_options, "net.inprocess",
                    request, true, &out->spans, &out->counters);
    replay.inprocess_ms = MsBetween(t0, Clock::now());
    if (!local.ok()) {
      ++out->failed;
      continue;
    }
    Result<std::string> payload = Status::Internal("not run");
    {
      ScopedSpan encode(&out->spans, "net.encode", request);
      t0 = Clock::now();
      payload = net::EncodeQueryResultSet(*answer);
      replay.encode_ms = MsBetween(t0, Clock::now());
    }
    if (!payload.ok()) {
      ++out->failed;
      continue;
    }
    replay.bytes = payload->size();
    {
      ScopedSpan decode(&out->spans, "net.decode", request);
      t0 = Clock::now();
      Result<net::QueryResultSet> decoded =
          net::DecodeQueryResultSet(*payload);
      replay.decode_ms = MsBetween(t0, Clock::now());
      if (!decoded.ok()) ++out->failed;
    }
    out->replays.push_back(replay);
  }
}

void RunWriter(MultiModelDatabase* db, Writer* writer,
               Clock::time_point start, Clock::time_point deadline,
               bool traced, PhaseResult* out) {
  const auto period = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(1.0 / kWriterHz));
  for (int64_t k = 0;; ++k) {
    const Clock::time_point due = start + period * k;
    if (due >= deadline) break;
    xjoin::RelationDelta delta = writer->Next(db);
    std::this_thread::sleep_until(due);
    const Clock::time_point begin = Clock::now();
    Status status;
    {
      ScopedSpan span(traced ? &out->writer_spans : nullptr, "delta.apply",
                      k);
      status = db->ApplyRelationDelta("R", delta);
    }
    const Clock::time_point end = Clock::now();
    ++out->updates_attempted;
    if (!status.ok()) {
      ++out->updates_failed;
      std::fprintf(stderr, "xbench: delta failed: %s\n",
                   status.ToString().c_str());
      continue;
    }
    out->update_ms.push_back(MsBetween(due, end));
    out->lag_ms.push_back(MsBetween(due, begin));
  }
}

PhaseResult RunPhase(Serving* serving, Writer* writer,
                     const std::vector<Shape>& shapes, double seconds,
                     bool traced) {
  PhaseResult out;
  out.clients.resize(kClients);
  const Clock::time_point start = Clock::now();
  const Clock::time_point deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
  std::vector<std::thread> threads;
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back(RunClient, std::cref(*serving),
                         serving->clients[static_cast<size_t>(c)].get(), c,
                         std::cref(shapes), deadline, traced,
                         &out.clients[static_cast<size_t>(c)]);
  }
  threads.emplace_back(RunWriter, serving->db.get(), writer, start, deadline,
                       traced, &out);
  for (std::thread& t : threads) t.join();
  out.seconds = MsBetween(start, Clock::now()) / 1e3;
  return out;
}

struct PhaseFigures {
  QueryFigures queries;
  QueryFigures updates;
};

PhaseFigures Figures(const PhaseResult& phase) {
  std::vector<double> queries;
  for (const ClientResult& c : phase.clients) {
    queries.insert(queries.end(), c.latency_ms.begin(), c.latency_ms.end());
  }
  return PhaseFigures{Summarize(queries, phase.seconds),
                      Summarize(phase.update_ms, phase.seconds)};
}

void ReportLayers(const PhaseResult& phase, const xjoin::CacheStats& before,
                  const xjoin::CacheStats& after, Layers* layers) {
  TraceSummary summary;
  summary.Add(phase.writer_spans);
  LoopResult replayed;
  std::vector<Replay> replays;
  for (const ClientResult& c : phase.clients) {
    summary.Add(c.spans);
    replays.insert(replays.end(), c.replays.begin(), c.replays.end());
    replayed.counters.MergeFrom(c.counters);
  }
  replayed.attempted = static_cast<int64_t>(replays.size());
  // Join, validation and plan layers from the in-process replays; cache
  // and admission counters from the whole phase.
  ReportLoopLayers(replayed, summary, before, after, layers);
  const double queries = static_cast<double>(std::max<int64_t>(
      phase.queries(), 1));
  layers->plan_misses =
      static_cast<double>(after.plan_misses - before.plan_misses) / queries;
  layers->trie_builds =
      static_cast<double>(after.trie_misses - before.trie_misses) / queries;
  layers->trie_evictions =
      static_cast<double>(after.trie_evictions - before.trie_evictions) /
      queries;

  layers->delta_apply_ms = Median(summary.SelfMs("delta.apply"));
  layers->delta_patches =
      static_cast<double>(after.trie_patches - before.trie_patches);
  layers->delta_compactions =
      static_cast<double>(after.trie_compactions - before.trie_compactions);
  layers->delta_lag_ms = Quantile(phase.lag_ms, 0.99);
  layers->plan_rebinds =
      static_cast<double>(after.plan_rebinds - before.plan_rebinds);

  std::vector<double> inprocess, encode, decode, bytes, unattributed;
  for (const Replay& r : replays) {
    inprocess.push_back(r.inprocess_ms);
    encode.push_back(r.encode_ms);
    decode.push_back(r.decode_ms);
    bytes.push_back(static_cast<double>(r.bytes));
    // Round-trip time the replayed stages do not account for: sockets,
    // framing, queueing and the server's own bookkeeping.
    unattributed.push_back(r.roundtrip_ms - r.inprocess_ms - r.encode_ms -
                           r.decode_ms);
  }
  layers->net_roundtrip_ms = Median(summary.DurationMs("net.roundtrip"));
  layers->net_inprocess_ms = Median(inprocess);
  layers->net_overhead_ms = layers->net_roundtrip_ms - layers->net_inprocess_ms;
  layers->net_encode_ms = Median(encode);
  layers->net_decode_ms = Median(decode);
  layers->net_response_bytes = Median(bytes);
  layers->unattributed_ms = Median(unattributed);
  if (layers->net_roundtrip_ms > 0) {
    layers->join_share = layers->join_execute_ms / layers->net_roundtrip_ms;
    layers->prepare_share =
        Median(summary.SelfMs("plan.prepare")) / layers->net_roundtrip_ms;
    layers->wire_share = layers->net_overhead_ms / layers->net_roundtrip_ms;
  }
}

}  // namespace

Result<Report> RunServeMixed(const Args& args) {
  const DataText data = Generate(args);
  std::vector<Shape> shapes = {Shape{kFigure1, {}, false},
                               Shape{kEnriched, {}, false}};
  Writer writer;

  // Expected answers on the baseline engine, with the toggled orders
  // present and absent, outside set-up.
  {
    MultiModelDatabase digest_db;
    XJ_RETURN_NOT_OK(LoadData(data, &digest_db, nullptr));
    XJ_ASSIGN_OR_RETURN(writer.toggled, PickToggled(digest_db, args.seed));
    for (Shape& shape : shapes) {
      XJ_ASSIGN_OR_RETURN(uint64_t digest,
                          BaselineDigest(digest_db, shape.text));
      shape.digests.push_back(digest);
    }
    xjoin::RelationDelta without;
    for (const Order& order : writer.toggled) {
      without.deletes.push_back(Encode(&digest_db, order));
    }
    XJ_RETURN_NOT_OK(digest_db.ApplyRelationDelta("R", without));
    for (Shape& shape : shapes) {
      XJ_ASSIGN_OR_RETURN(uint64_t digest,
                          BaselineDigest(digest_db, shape.text));
      shape.digests.push_back(digest);
    }
  }
  TrimHeap();

  Report report;
  SpanBuffer setup_spans;
  SpanBuffer* setup_trace = args.trace ? &setup_spans : nullptr;
  std::vector<double> setup_s;
  const double rss_before = RssMb();
  Clock::time_point start = Clock::now();
  XJ_ASSIGN_OR_RETURN(std::unique_ptr<Serving> serving,
                      SetUp(data, shapes, setup_trace));
  setup_s.push_back(MsBetween(start, Clock::now()) / 1e3);

  PhaseFigures plain_figures;  // traced runs: the untraced first third
  double seconds = args.seconds;
  auto count = [&report](const PhaseResult& phase) {
    for (const ClientResult& c : phase.clients) {
      report.attempted += c.attempted;
      report.failed += c.failed;
    }
    report.attempted += phase.updates_attempted;
    report.failed += phase.updates_failed;
  };
  if (args.trace) {
    PhaseResult plain =
        RunPhase(serving.get(), &writer, shapes, args.seconds / 3, false);
    count(plain);
    plain_figures = Figures(plain);
    seconds = args.seconds - args.seconds / 3;
  }
  const xjoin::CacheStats before = serving->db->cache_stats();
  int64_t retries_before = 0;
  for (const auto& client : serving->clients) {
    retries_before += client->stats().retries;
  }
  PhaseResult phase =
      RunPhase(serving.get(), &writer, shapes, seconds, args.trace);
  count(phase);
  const xjoin::CacheStats after = serving->db->cache_stats();
  const net::ServerStats server_stats = serving->server->stats();
  int64_t retries = -retries_before;
  for (const auto& client : serving->clients) {
    retries += client->stats().retries;
  }
  report.e2e.mem_mb = RssMb() - rss_before;
  serving.reset();

  for (int i = 1; i < SetupRepeats(args); ++i) {
    TrimHeap();
    start = Clock::now();
    XJ_ASSIGN_OR_RETURN(std::unique_ptr<Serving> again,
                        SetUp(data, shapes, setup_trace));
    setup_s.push_back(MsBetween(start, Clock::now()) / 1e3);
  }
  report.e2e.setup_s = Median(setup_s);

  const PhaseFigures figures = Figures(phase);
  report.e2e.query_p50_ms = figures.queries.p50_ms;
  report.e2e.query_p90_ms = figures.queries.p90_ms;
  report.e2e.query_p99_ms = figures.queries.p99_ms;
  report.e2e.query_qps = figures.queries.qps;
  std::fprintf(stderr, "xbench: updates p50 %.4f ms, p90 %.4f ms, p99 %.4f ms\n",
               figures.updates.p50_ms, figures.updates.p90_ms,
               figures.updates.p99_ms);
  if (!args.trace) return report;
  // Write latency comes from the untraced first third: in the traced
  // phase the clients' in-process replays compete with the writer.
  report.layers.update_p50_ms = plain_figures.updates.p50_ms;
  report.layers.update_p90_ms = plain_figures.updates.p90_ms;

  ReportLayers(phase, before, after, &report.layers);
  TraceSummary setup_summary;
  setup_summary.Add(setup_spans);
  ReportLoadSpans(setup_summary, SetupRepeats(args), &report.layers);
  report.layers.net_retries = static_cast<double>(retries);
  report.layers.net_shed = static_cast<double>(
      server_stats.shed_inflight + server_stats.rejected_conn_limit +
      server_stats.shed_draining);
  const double untraced_qps = plain_figures.queries.qps;
  report.layers.overhead_frac =
      untraced_qps > 0 ? 1 - figures.queries.qps / untraced_qps : 0;
  std::fprintf(stderr, "xbench: untraced %.1f q/s, traced %.1f q/s\n",
               untraced_qps, figures.queries.qps);
  return report;
}

}  // namespace xbench
