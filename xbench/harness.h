// Shared pieces of the repository benchmark: arguments, the result
// record every workload fills, latency statistics, result digests, the
// CSV/XML text hand-off into a MultiModelDatabase, the in-process
// closed loop used by the in-process workloads, and the host
// fingerprint.
#ifndef XBENCH_HARNESS_H_
#define XBENCH_HARNESS_H_

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "common/dictionary.h"
#include "common/status.h"
#include "core/database.h"
#include "net/frame.h"
#include "relational/relation.h"
#include "trace.h"
#include "xml/document.h"

namespace xbench {

/// Command-line arguments.
struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Smoke-test sizes: tiny data, one set-up, a short run.
  bool tiny = false;
  /// Where the traced run writes its spans ("" = nowhere).
  std::string trace_dir;
};

/// The end-to-end figures every workload reports (untraced runs).
struct EndToEnd {
  double setup_s = 0;
  double query_p50_ms = 0;
  double query_p90_ms = 0;
  double query_qps = 0;
  double mem_mb = 0;
  /// Printed on stderr only: on a shared host the p99 moved 2-5x
  /// between runs minutes apart, too far to bound.
  double query_p99_ms = 0;
};

/// The per-layer figures of a traced run. Every workload reports every
/// field; a layer the workload never reaches reads 0.
struct Layers {
  double xml_load_ms = 0, csv_load_ms = 0;
  double plan_prepare_ms = 0, plan_misses = 0;
  double trie_builds = 0, trie_build_ms = 0;
  double plan_hit_ratio = 0, trie_hit_ratio = 0;
  double trie_evictions = 0, trie_mb = 0;
  double join_execute_ms = 0, join_seeks = 0, join_seeks_per_output = 0;
  double join_total_intermediate = 0, join_max_intermediate = 0;
  double join_shards = 0;
  double validate_expanded = 0, validate_kept_ratio = 0;
  double update_p50_ms = 0, update_p90_ms = 0;
  double delta_apply_ms = 0, delta_patches = 0, delta_compactions = 0;
  double delta_lag_ms = 0, plan_rebinds = 0;
  double admitted = 0, queued = 0, rejected = 0;
  double net_roundtrip_ms = 0, net_inprocess_ms = 0, net_overhead_ms = 0;
  double net_encode_ms = 0, net_decode_ms = 0, net_response_bytes = 0;
  double net_retries = 0, net_shed = 0;
  double unattributed_ms = 0, overhead_frac = 0;
  double join_share = 0, prepare_share = 0, wire_share = 0;
};

/// What one workload run hands back to main().
struct Report {
  int64_t attempted = 0;
  /// Failed, refused or digest-mismatched operations.
  int64_t failed = 0;
  EndToEnd e2e;
  Layers layers;
};

// ---------------------------------------------------------------------
// Statistics

using Clock = std::chrono::steady_clock;

inline double MsBetween(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::milli>(to - from).count();
}

/// Latency and rate figures of a timed phase, over all of its samples.
struct QueryFigures {
  double p50_ms = 0;
  double p90_ms = 0;
  double p99_ms = 0;
  double qps = 0;
};
/// `ms` holds the phase's latencies; the rate counts them against
/// `seconds`.
QueryFigures Summarize(const std::vector<double>& ms, double seconds);

/// Linear-interpolated quantile (q in [0, 1]); 0 for an empty sample.
double Quantile(std::vector<double> values, double q);
inline double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}

// ---------------------------------------------------------------------
// Result digests: a hash of the sorted per-row hashes of the decoded
// rows, so two results agree iff they hold the same multiset of rows
// (up to hash collisions), whatever their row order.

uint64_t DigestRelation(const xjoin::Relation& relation,
                        const xjoin::Dictionary& dict);
uint64_t DigestResultSet(const xjoin::net::QueryResultSet& result);

/// Runs `text` on the baseline engine (the per-model evaluator that
/// shares no join code with XJoin) and digests the answer.
xjoin::Result<uint64_t> BaselineDigest(const xjoin::MultiModelDatabase& db,
                                       const std::string& text);

// ---------------------------------------------------------------------
// Process memory

/// Resident set size of this process, MiB.
double RssMb();
/// Returns freed heap pages to the OS so RssMb() starts from a floor.
void TrimHeap();

// ---------------------------------------------------------------------
// Data hand-off: generated instances travel to the database only as
// CSV / XML text, so parsing and indexing are part of set-up.

struct DataText {
  std::vector<std::pair<std::string, std::string>> csv;  ///< name, text
  std::vector<std::pair<std::string, std::string>> xml;  ///< name, text
};

void AddRelationText(DataText* data, const std::string& name,
                     const xjoin::Relation& relation,
                     const xjoin::Dictionary& dict);
void AddDocumentText(DataText* data, const std::string& name,
                     const xjoin::XmlDocument& doc);

/// Registers every table and document of `data` in `db`, recording one
/// "csv.load" / "xml.load" span per call into `trace` (nullable).
xjoin::Status LoadData(const DataText& data, xjoin::MultiModelDatabase* db,
                       SpanBuffer* trace);

/// Copies the csv.load / xml.load totals (per set-up) into `layers`.
void ReportLoadSpans(const TraceSummary& summary, int setups, Layers* layers);

// ---------------------------------------------------------------------
// The in-process closed loop

/// One query shape and the digests a correct answer may have.
struct Shape {
  std::string text;
  std::vector<uint64_t> digests;
  /// wcoj-warm's adversarial shape: its validation counters are the
  /// ones reported.
  bool adversarial = false;
};

/// Whether `digest` is one of the shape's expected digests.
bool Matches(const Shape& shape, uint64_t digest);

/// Counters gathered by a traced loop.
struct LoopCounters {
  int64_t plan_misses = 0;
  int64_t trie_builds = 0;
  int64_t trie_build_micros = 0;
  int64_t seeks = 0;
  int64_t outputs = 0;
  int64_t total_intermediate = 0;
  int64_t max_intermediate = 0;
  int64_t shards = 0;
  /// Requests whose validation counters were gathered.
  int64_t validate_requests = 0;
  int64_t expanded = 0;
  int64_t validated = 0;

  void MergeFrom(const LoopCounters& other) {
    plan_misses += other.plan_misses;
    trie_builds += other.trie_builds;
    trie_build_micros += other.trie_build_micros;
    seeks += other.seeks;
    outputs += other.outputs;
    total_intermediate += other.total_intermediate;
    max_intermediate = std::max(max_intermediate, other.max_intermediate);
    shards += other.shards;
    validate_requests += other.validate_requests;
    expanded += other.expanded;
    validated += other.validated;
  }
};

struct LoopResult {
  std::vector<double> latency_ms;
  double busy_s = 0;  ///< summed call time of completed queries
  int64_t attempted = 0;
  int64_t failed = 0;
  LoopCounters counters;
};

/// One request through Session::Prepare + Session::Execute under a
/// `root` span with "plan.prepare" (renamed "plan.prepare.miss" when the
/// plan was not cached) and "join.execute" children, adding the engine
/// counters to *counters (validation counters only if
/// `count_validation`).
xjoin::Result<xjoin::Relation> TracedQuery(
    const xjoin::MultiModelDatabase& db, const std::string& text,
    const xjoin::QueryOptions& options, const char* root, int64_t request,
    bool count_validation, SpanBuffer* trace, LoopCounters* counters);

/// One caller, closed loop, for `seconds`: each request opens a
/// Session and runs shapes[next_shape()] through Session::Query,
/// checks the answer against the shape's digests and times the call.
/// With a non-null `trace` each request instead runs Session::Prepare
/// and Session::Execute under "request" / "plan.prepare[.miss]" /
/// "join.execute" spans and gathers the engine counters.
LoopResult RunInProcessLoop(const xjoin::MultiModelDatabase& db,
                            const std::vector<Shape>& shapes,
                            const std::function<size_t()>& next_shape,
                            const xjoin::QueryOptions& options,
                            double seconds, SpanBuffer* trace);

/// Fills the join / validation / plan / trie / cache layers from a
/// traced loop, its spans and the cache counters it moved.
void ReportLoopLayers(const LoopResult& loop, const TraceSummary& summary,
                      const xjoin::CacheStats& before,
                      const xjoin::CacheStats& after, Layers* layers);

/// Everything that distinguishes one in-process workload from another.
struct InProcessSpec {
  DataText data;
  /// Query texts; RunInProcessWorkload fills in the digests.
  std::vector<Shape> shapes;
  xjoin::QueryOptions options;
  /// Cache sizing applied to every fresh database before loading
  /// (nullable).
  std::function<void(xjoin::MultiModelDatabase*)> configure;
  /// The request stream: index of the next shape to send.
  std::function<size_t()> next_shape;
  /// Requests of the stream run (and checked) during set-up.
  int warmup_requests = 0;
};

/// The in-process run: digests on the baseline engine, timed set-ups
/// (load + warm-up), the closed loop, and the
/// metrics of the traced or untraced run.
xjoin::Result<Report> RunInProcessWorkload(const Args& args,
                                           InProcessSpec spec);

/// Number of set-ups timed per run; setup_s is their median.
inline int SetupRepeats(const Args& args) { return args.tiny ? 1 : 9; }

// ---------------------------------------------------------------------
// Workloads (one file each)

xjoin::Result<Report> RunWcojWarm(const Args& args);
xjoin::Result<Report> RunAdhocCold(const Args& args);
xjoin::Result<Report> RunServeMixed(const Args& args);

// ---------------------------------------------------------------------
// Host fingerprint: CPU model, cores, SIMD kernel, compiler, build type.
std::string HostFingerprintJson();

}  // namespace xbench

#endif  // XBENCH_HARNESS_H_
