#include "harness.h"

#include <malloc.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <memory>
#include <thread>

#include "common/metrics.h"
#include "common/simd.h"
#include "relational/csv.h"
#include "relational/intersect_kernels.h"
#include "xml/serialize.h"

#ifndef XBENCH_COMPILER
#define XBENCH_COMPILER "unknown"
#endif
#ifndef XBENCH_BUILD_TYPE
#define XBENCH_BUILD_TYPE "unknown"
#endif

namespace xbench {

using xjoin::CacheStats;
using xjoin::Dictionary;
using xjoin::MultiModelDatabase;
using xjoin::QueryOptions;
using xjoin::Relation;
using xjoin::Result;
using xjoin::Status;

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

QueryFigures Summarize(const std::vector<double>& ms, double seconds) {
  QueryFigures out;
  out.p50_ms = Quantile(ms, 0.50);
  out.p90_ms = Quantile(ms, 0.90);
  out.p99_ms = Quantile(ms, 0.99);
  out.qps = seconds > 0 ? static_cast<double>(ms.size()) / seconds : 0;
  return out;
}

// ---------------------------------------------------------------------
// Digests

namespace {

constexpr uint64_t kFnvOffset = 1469598103934665603ULL;
constexpr uint64_t kFnvPrime = 1099511628211ULL;

uint64_t Fnv(uint64_t h, const char* data, size_t size) {
  for (size_t i = 0; i < size; ++i) {
    h ^= static_cast<unsigned char>(data[i]);
    h *= kFnvPrime;
  }
  return h;
}

uint64_t Mix(uint64_t x) {  // splitmix64 finalizer
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ULL;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

// Cells are separated by a byte no generated value contains.
uint64_t AddCell(uint64_t h, const std::string& cell) {
  h = Fnv(h, cell.data(), cell.size());
  h ^= 0x1f;
  return h * kFnvPrime;
}

uint64_t CombineSorted(std::vector<uint64_t> row_hashes) {
  std::sort(row_hashes.begin(), row_hashes.end());
  uint64_t h = Mix(row_hashes.size());
  for (uint64_t row : row_hashes) h = Mix(h ^ row);
  return h;
}

// Column positions sorted by column name: a Q(*) head leaves the column
// order to the engine, so digests must not depend on it.
std::vector<size_t> ColumnsByName(const std::vector<std::string>& names) {
  std::vector<size_t> order(names.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(),
            [&names](size_t a, size_t b) { return names[a] < names[b]; });
  return order;
}

}  // namespace

uint64_t DigestRelation(const Relation& relation, const Dictionary& dict) {
  std::vector<std::string> names;
  for (size_t c = 0; c < relation.num_columns(); ++c) {
    names.push_back(relation.schema().attribute(c));
  }
  const std::vector<size_t> columns = ColumnsByName(names);
  std::vector<uint64_t> rows(relation.num_rows());
  for (size_t r = 0; r < relation.num_rows(); ++r) {
    uint64_t h = kFnvOffset;
    for (size_t c : columns) h = AddCell(h, dict.Decode(relation.at(r, c)));
    rows[r] = Mix(h);
  }
  return CombineSorted(std::move(rows));
}

uint64_t DigestResultSet(const xjoin::net::QueryResultSet& result) {
  const std::vector<size_t> columns = ColumnsByName(result.columns);
  std::vector<uint64_t> rows(result.rows.size());
  for (size_t r = 0; r < result.rows.size(); ++r) {
    uint64_t h = kFnvOffset;
    for (size_t c : columns) h = AddCell(h, result.rows[r][c]);
    rows[r] = Mix(h);
  }
  return CombineSorted(std::move(rows));
}

Result<uint64_t> BaselineDigest(const MultiModelDatabase& db,
                                const std::string& text) {
  QueryOptions options;
  options.engine = xjoin::Engine::kBaseline;
  XJ_ASSIGN_OR_RETURN(Relation answer, db.OpenSession().Query(text, options));
  return DigestRelation(answer, db.dictionary());
}

// ---------------------------------------------------------------------
// Memory

double RssMb() {
  std::ifstream statm("/proc/self/statm");
  long long pages_total = 0;
  long long pages_resident = 0;
  if (!(statm >> pages_total >> pages_resident)) return 0;
  return static_cast<double>(pages_resident) *
         static_cast<double>(sysconf(_SC_PAGESIZE)) / (1024.0 * 1024.0);
}

void TrimHeap() { malloc_trim(0); }

// ---------------------------------------------------------------------
// Data hand-off

void AddRelationText(DataText* data, const std::string& name,
                     const Relation& relation, const Dictionary& dict) {
  data->csv.emplace_back(name, xjoin::WriteCsv(relation, dict));
}

void AddDocumentText(DataText* data, const std::string& name,
                     const xjoin::XmlDocument& doc) {
  xjoin::XmlWriteOptions options;
  options.indent = false;
  data->xml.emplace_back(name, xjoin::WriteXml(doc, options));
}

Status LoadData(const DataText& data, MultiModelDatabase* db,
                SpanBuffer* trace) {
  for (const auto& [name, text] : data.csv) {
    ScopedSpan span(trace, "csv.load", 0);
    XJ_RETURN_NOT_OK(db->RegisterRelationCsv(name, text));
  }
  for (const auto& [name, text] : data.xml) {
    ScopedSpan span(trace, "xml.load", 0);
    XJ_RETURN_NOT_OK(db->RegisterDocumentXml(name, text));
  }
  return Status::OK();
}

void ReportLoadSpans(const TraceSummary& summary, int setups, Layers* layers) {
  const double n = std::max(setups, 1);
  layers->csv_load_ms = summary.TotalSelfMs("csv.load") / n;
  layers->xml_load_ms = summary.TotalSelfMs("xml.load") / n;
}

// ---------------------------------------------------------------------
// In-process closed loop

bool Matches(const Shape& shape, uint64_t digest) {
  return std::find(shape.digests.begin(), shape.digests.end(), digest) !=
         shape.digests.end();
}

namespace {

void NoteFailure(const Shape& shape, const Status& status) {
  std::fprintf(stderr, "xbench: query failed: %s\n  %s\n",
               status.ToString().c_str(), shape.text.c_str());
}

void NoteMismatch(const Shape& shape) {
  std::fprintf(stderr, "xbench: digest mismatch: %s\n", shape.text.c_str());
}

}  // namespace

Result<Relation> TracedQuery(const MultiModelDatabase& db,
                             const std::string& text,
                             const QueryOptions& options, const char* root,
                             int64_t request, bool count_validation,
                             SpanBuffer* trace, LoopCounters* counters) {
  xjoin::Metrics prepare_counters;
  xjoin::Metrics execute_counters;
  QueryOptions prepare_options = options;
  prepare_options.metrics = &prepare_counters;
  QueryOptions execute_options = options;
  execute_options.metrics = &execute_counters;

  Result<Relation> result = Status::Internal("not run");
  const int32_t root_span = trace->Begin(root, request);
  xjoin::Session session = db.OpenSession();
  const int32_t prepare = trace->Begin("plan.prepare", request, root_span);
  Result<xjoin::PreparedQuery> prepared =
      session.Prepare(text, prepare_options);
  trace->End(prepare);
  if (prepared.ok()) {
    const int32_t execute = trace->Begin("join.execute", request, root_span);
    result = session.Execute(*prepared, execute_options);
    trace->End(execute);
  } else {
    result = prepared.status();
  }
  trace->End(root_span);

  LoopCounters& c = *counters;
  if (prepare_counters.Get("plan.prepared") > 0) {
    trace->Rename(prepare, "plan.prepare.miss");
    ++c.plan_misses;
  }
  c.trie_builds += prepare_counters.Get("trie.builds");
  c.trie_build_micros += prepare_counters.Get("trie.build_micros");
  c.seeks += execute_counters.Get("gj.seeks");
  c.total_intermediate += execute_counters.Get("gj.total_intermediate");
  c.max_intermediate = std::max(
      c.max_intermediate, execute_counters.Get("xjoin.max_intermediate"));
  c.shards += execute_counters.Get("gj.shards");
  if (result.ok()) c.outputs += static_cast<int64_t>(result->num_rows());
  if (count_validation) {
    ++c.validate_requests;
    c.expanded += execute_counters.Get("xjoin.expanded");
    c.validated += execute_counters.Get("xjoin.validated");
  }
  return result;
}

LoopResult RunInProcessLoop(const MultiModelDatabase& db,
                            const std::vector<Shape>& shapes,
                            const std::function<size_t()>& next_shape,
                            const QueryOptions& options, double seconds,
                            SpanBuffer* trace) {
  LoopResult out;
  const Clock::time_point deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(seconds));
  int64_t request = 0;
  while (Clock::now() < deadline) {
    const Shape& shape = shapes[next_shape()];
    ++out.attempted;
    ++request;
    Clock::time_point start;
    Clock::time_point end;
    Result<Relation> result = Status::Internal("not run");
    if (trace == nullptr) {
      start = Clock::now();
      result = db.OpenSession().Query(shape.text, options);
      end = Clock::now();
    } else {
      const bool count_validation =
          shape.adversarial ||
          std::none_of(shapes.begin(), shapes.end(),
                       [](const Shape& s) { return s.adversarial; });
      start = Clock::now();
      result = TracedQuery(db, shape.text, options, "request", request,
                           count_validation, trace, &out.counters);
      end = Clock::now();
    }
    if (!result.ok()) {
      ++out.failed;
      NoteFailure(shape, result.status());
      continue;
    }
    if (!Matches(shape, DigestRelation(*result, db.dictionary()))) {
      ++out.failed;
      NoteMismatch(shape);
      continue;
    }
    const double ms = MsBetween(start, end);
    out.latency_ms.push_back(ms);
    out.busy_s += ms / 1e3;
  }
  return out;
}

namespace {

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

}  // namespace

void ReportLoopLayers(const LoopResult& loop, const TraceSummary& summary,
                      const CacheStats& before, const CacheStats& after,
                      Layers* layers) {
  const LoopCounters& c = loop.counters;
  const double requests = static_cast<double>(std::max<int64_t>(
      loop.attempted, 1));
  layers->plan_prepare_ms = Median(summary.SelfMs("plan.prepare.miss"));
  layers->plan_misses = static_cast<double>(c.plan_misses) / requests;
  layers->trie_builds = static_cast<double>(c.trie_builds) / requests;
  layers->trie_build_ms =
      Ratio(static_cast<double>(c.trie_build_micros) / 1e3,
            static_cast<double>(c.trie_builds));

  const double plan_hits = static_cast<double>(after.plan_hits -
                                               before.plan_hits);
  const double plan_misses = static_cast<double>(after.plan_misses -
                                                 before.plan_misses);
  const double trie_hits = static_cast<double>(after.trie_hits -
                                               before.trie_hits);
  const double trie_misses = static_cast<double>(after.trie_misses -
                                                 before.trie_misses);
  layers->plan_hit_ratio = Ratio(plan_hits, plan_hits + plan_misses);
  layers->trie_hit_ratio = Ratio(trie_hits, trie_hits + trie_misses);
  layers->trie_evictions =
      static_cast<double>(after.trie_evictions - before.trie_evictions) /
      requests;
  layers->trie_mb = static_cast<double>(after.trie_bytes) / (1024.0 * 1024.0);

  layers->join_execute_ms = Median(summary.SelfMs("join.execute"));
  layers->join_seeks = static_cast<double>(c.seeks) / requests;
  layers->join_seeks_per_output =
      Ratio(static_cast<double>(c.seeks), static_cast<double>(c.outputs));
  layers->join_total_intermediate =
      static_cast<double>(c.total_intermediate) / requests;
  layers->join_max_intermediate = static_cast<double>(c.max_intermediate);
  layers->join_shards = static_cast<double>(c.shards) / requests;
  layers->validate_expanded =
      Ratio(static_cast<double>(c.expanded),
            static_cast<double>(c.validate_requests));
  layers->validate_kept_ratio = Ratio(static_cast<double>(c.validated),
                                      static_cast<double>(c.expanded));
  layers->admitted = static_cast<double>(after.admission_admitted -
                                         before.admission_admitted);
  layers->queued = static_cast<double>(after.admission_queued -
                                       before.admission_queued);
  layers->rejected = static_cast<double>(after.admission_rejected -
                                         before.admission_rejected);

  layers->unattributed_ms = Median(summary.SelfMs("request"));
  const double request_ms = summary.TotalTreeMs("request");
  layers->join_share = Ratio(summary.TotalSelfMs("join.execute"), request_ms);
  layers->prepare_share = Ratio(summary.TotalSelfMs("plan.prepare") +
                                    summary.TotalSelfMs("plan.prepare.miss"),
                                request_ms);
}

// ---------------------------------------------------------------------
// The in-process workload skeleton

namespace {

using DatabasePtr = std::unique_ptr<MultiModelDatabase>;

Result<DatabasePtr> Load(const InProcessSpec& spec, SpanBuffer* trace) {
  auto db = std::make_unique<MultiModelDatabase>();
  if (spec.configure) spec.configure(db.get());
  XJ_RETURN_NOT_OK(LoadData(spec.data, db.get(), trace));
  return db;
}

// Load plus warm-up; every warm-up answer is checked too.
Result<DatabasePtr> SetUp(const InProcessSpec& spec, SpanBuffer* trace) {
  XJ_ASSIGN_OR_RETURN(DatabasePtr db, Load(spec, trace));
  for (int i = 0; i < spec.warmup_requests; ++i) {
    const Shape& shape = spec.shapes[spec.next_shape()];
    XJ_ASSIGN_OR_RETURN(Relation answer,
                        db->OpenSession().Query(shape.text, spec.options));
    if (!Matches(shape, DigestRelation(answer, db->dictionary()))) {
      return Status::Internal("warm-up digest mismatch: " + shape.text);
    }
  }
  return db;
}

double SecondsSince(Clock::time_point start) {
  return MsBetween(start, Clock::now()) / 1e3;
}

}  // namespace

Result<Report> RunInProcessWorkload(const Args& args, InProcessSpec spec) {
  // Expected answers, once, on the baseline engine and outside set-up.
  const Clock::time_point digest_start = Clock::now();
  {
    XJ_ASSIGN_OR_RETURN(DatabasePtr digest_db, Load(spec, nullptr));
    for (Shape& shape : spec.shapes) {
      XJ_ASSIGN_OR_RETURN(uint64_t digest,
                          BaselineDigest(*digest_db, shape.text));
      shape.digests = {digest};
    }
  }
  TrimHeap();
  std::fprintf(stderr, "xbench: %zu baseline digests in %.2fs\n",
               spec.shapes.size(), SecondsSince(digest_start));

  Report report;
  SpanBuffer trace;
  SpanBuffer* tracer = args.trace ? &trace : nullptr;
  std::vector<double> setup_s;
  const double rss_before = RssMb();
  Clock::time_point start = Clock::now();
  XJ_ASSIGN_OR_RETURN(DatabasePtr db, SetUp(spec, tracer));
  setup_s.push_back(SecondsSince(start));

  // A traced run first measures untraced throughput on a third of its
  // time, so the tracing overhead is known.
  double untraced_qps = 0;
  double loop_seconds = args.seconds;
  if (tracer != nullptr) {
    LoopResult plain = RunInProcessLoop(*db, spec.shapes, spec.next_shape,
                                        spec.options, args.seconds / 3,
                                        nullptr);
    report.attempted += plain.attempted;
    report.failed += plain.failed;
    untraced_qps = Summarize(plain.latency_ms, plain.busy_s).qps;
    loop_seconds = args.seconds - args.seconds / 3;
  }
  const CacheStats before_loop = db->cache_stats();
  const LoopResult loop = RunInProcessLoop(
      *db, spec.shapes, spec.next_shape, spec.options, loop_seconds, tracer);
  const CacheStats after_loop = db->cache_stats();
  report.attempted += loop.attempted;
  report.failed += loop.failed;

  report.e2e.mem_mb = RssMb() - rss_before;
  db.reset();

  for (int i = 1; i < SetupRepeats(args); ++i) {
    TrimHeap();
    start = Clock::now();
    XJ_ASSIGN_OR_RETURN(DatabasePtr again, SetUp(spec, tracer));
    setup_s.push_back(SecondsSince(start));
  }
  report.e2e.setup_s = Median(setup_s);

  const QueryFigures figures = Summarize(loop.latency_ms, loop.busy_s);
  const double qps = figures.qps;
  report.e2e.query_p50_ms = figures.p50_ms;
  report.e2e.query_p90_ms = figures.p90_ms;
  report.e2e.query_p99_ms = figures.p99_ms;
  report.e2e.query_qps = qps;
  if (tracer == nullptr) return report;

  TraceSummary summary;
  summary.Add(trace);
  ReportLoadSpans(summary, SetupRepeats(args), &report.layers);
  ReportLoopLayers(loop, summary, before_loop, after_loop, &report.layers);
  report.layers.overhead_frac = untraced_qps > 0 ? 1 - qps / untraced_qps : 0;
  std::fprintf(stderr, "xbench: untraced %.1f q/s, traced %.1f q/s\n",
               untraced_qps, qps);
  if (!args.trace_dir.empty()) {
    summary.WriteJsonl(args.trace_dir + "/" + args.workload + ".spans.jsonl");
  }
  summary.PrintBreakdown(stderr);
  return report;
}

// ---------------------------------------------------------------------
// Host fingerprint

namespace {

std::string CpuModel() {
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) {
        size_t start = line.find_first_not_of(' ', colon + 1);
        return start == std::string::npos ? "" : line.substr(start);
      }
    }
  }
  return "unknown";
}

std::string JsonEscape(const std::string& raw) {
  std::string out;
  for (char ch : raw) {
    if (ch == '"' || ch == '\\') out += '\\';
    if (static_cast<unsigned char>(ch) >= 0x20) out += ch;
  }
  return out;
}

}  // namespace

std::string HostFingerprintJson() {
  const char* simd =
      xjoin::SimdLevelName(xjoin::ActiveIntersectKernel().level);
  char buf[1024];
  std::snprintf(buf, sizeof(buf),
                "{\"cpu\": \"%s\", \"nproc\": %u, \"simd\": \"%s\", "
                "\"compiler\": \"%s\", \"build_type\": \"%s\"}",
                JsonEscape(CpuModel()).c_str(),
                std::thread::hardware_concurrency(), simd,
                JsonEscape(XBENCH_COMPILER).c_str(),
                JsonEscape(XBENCH_BUILD_TYPE).c_str());
  return buf;
}

}  // namespace xbench
