// xbench: the repository benchmark. Runs one named workload against the
// public API, checks every answer against a digest computed on the
// baseline engine, and prints, as the last line of standard output, one
// JSON object: {"correct", "attempted", "failed", "metrics"}. Untraced
// runs report the end-to-end metrics; traced runs (--trace 1) the
// per-layer ones. The line before it is the host fingerprint.
//
//   xbench --workload wcoj-warm|adhoc-cold|serve-mixed --seed N
//          --seconds S --trace 0|1 [--tiny] [--trace-dir DIR]
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "harness.h"

namespace xbench {
namespace {

struct E2eField {
  const char* name;
  const char* unit;
  double EndToEnd::*field;
};

constexpr E2eField kEndToEnd[] = {
    {"setup_s", "s", &EndToEnd::setup_s},
    {"query_p50_ms", "ms", &EndToEnd::query_p50_ms},
    {"query_p90_ms", "ms", &EndToEnd::query_p90_ms},
    {"query_qps", "1/s", &EndToEnd::query_qps},
    {"mem_mb", "MiB", &EndToEnd::mem_mb},
};

struct LayerField {
  const char* name;
  const char* unit;
  double Layers::*field;
};

constexpr LayerField kLayers[] = {
    {"xml.load_ms", "ms", &Layers::xml_load_ms},
    {"csv.load_ms", "ms", &Layers::csv_load_ms},
    {"plan.prepare_ms", "ms", &Layers::plan_prepare_ms},
    {"plan.misses", "count/query", &Layers::plan_misses},
    {"trie.builds", "count/query", &Layers::trie_builds},
    {"trie.build_ms", "ms", &Layers::trie_build_ms},
    {"cache.plan_hit_ratio", "ratio", &Layers::plan_hit_ratio},
    {"cache.trie_hit_ratio", "ratio", &Layers::trie_hit_ratio},
    {"cache.trie_evictions", "count/query", &Layers::trie_evictions},
    {"cache.trie_mb", "MiB", &Layers::trie_mb},
    {"join.execute_ms", "ms", &Layers::join_execute_ms},
    {"join.seeks", "count/query", &Layers::join_seeks},
    {"join.seeks_per_output", "ratio", &Layers::join_seeks_per_output},
    {"join.total_intermediate", "count/query",
     &Layers::join_total_intermediate},
    {"join.max_intermediate", "count", &Layers::join_max_intermediate},
    {"join.shards", "count/query", &Layers::join_shards},
    {"validate.expanded", "count/query", &Layers::validate_expanded},
    {"validate.kept_ratio", "ratio", &Layers::validate_kept_ratio},
    {"update.p50_ms", "ms", &Layers::update_p50_ms},
    {"update.p90_ms", "ms", &Layers::update_p90_ms},
    {"delta.apply_ms", "ms", &Layers::delta_apply_ms},
    {"delta.patches", "count", &Layers::delta_patches},
    {"delta.compactions", "count", &Layers::delta_compactions},
    {"delta.lag_ms", "ms", &Layers::delta_lag_ms},
    {"plan.rebinds", "count", &Layers::plan_rebinds},
    {"admission.admitted", "count", &Layers::admitted},
    {"admission.queued", "count", &Layers::queued},
    {"admission.rejected", "count", &Layers::rejected},
    {"net.roundtrip_ms", "ms", &Layers::net_roundtrip_ms},
    {"net.inprocess_ms", "ms", &Layers::net_inprocess_ms},
    {"net.overhead_ms", "ms", &Layers::net_overhead_ms},
    {"net.encode_ms", "ms", &Layers::net_encode_ms},
    {"net.decode_ms", "ms", &Layers::net_decode_ms},
    {"net.response_bytes", "bytes", &Layers::net_response_bytes},
    {"net.retries", "count", &Layers::net_retries},
    {"net.shed", "count", &Layers::net_shed},
    {"trace.unattributed_ms", "ms", &Layers::unattributed_ms},
    {"trace.overhead_frac", "ratio", &Layers::overhead_frac},
    {"trace.join_share", "ratio", &Layers::join_share},
    {"trace.prepare_share", "ratio", &Layers::prepare_share},
    {"trace.wire_share", "ratio", &Layers::wire_share},
};

[[noreturn]] void Usage(const char* why) {
  std::fprintf(stderr,
               "xbench: %s\nusage: xbench --workload wcoj-warm|adhoc-cold|"
               "serve-mixed --seed N --seconds S --trace 0|1 [--tiny] "
               "[--trace-dir DIR]\n",
               why);
  std::exit(2);
}

Args ParseArgs(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--tiny") {
      args.tiny = true;
      continue;
    }
    if (i + 1 >= argc) Usage(("missing value for " + flag).c_str());
    const char* value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value, nullptr);
    } else if (flag == "--trace") {
      args.trace = std::strcmp(value, "0") != 0;
    } else if (flag == "--trace-dir") {
      args.trace_dir = value;
    } else {
      Usage(("unknown flag " + flag).c_str());
    }
  }
  if (args.workload.empty()) Usage("--workload is required");
  if (!(args.seconds > 0)) Usage("--seconds must be positive");
  return args;
}

int Main(int argc, char** argv) {
  const Args args = ParseArgs(argc, argv);
  const Clock::time_point start = Clock::now();
  xjoin::Result<Report> report = xjoin::Status::NotFound("");
  if (args.workload == "wcoj-warm") {
    report = RunWcojWarm(args);
  } else if (args.workload == "adhoc-cold") {
    report = RunAdhocCold(args);
  } else if (args.workload == "serve-mixed") {
    report = RunServeMixed(args);
  } else {
    Usage(("unknown workload " + args.workload).c_str());
  }
  if (!report.ok()) {
    std::fprintf(stderr, "xbench: %s failed: %s\n", args.workload.c_str(),
                 report.status().ToString().c_str());
    return 1;
  }

  std::string metrics;
  auto add = [&metrics](const char* name, double value, const char* unit) {
    char buf[256];
    std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  metrics.empty() ? "" : ", ", name, value, unit);
    metrics += buf;
    std::fprintf(stderr, "  %-24s %14.6g %s\n", name, value, unit);
  };
  std::fprintf(stderr, "xbench %s seed=%llu trace=%d: %.1fs\n",
               args.workload.c_str(),
               static_cast<unsigned long long>(args.seed), args.trace ? 1 : 0,
               MsBetween(start, Clock::now()) / 1e3);
  if (args.trace) {
    for (const LayerField& f : kLayers) add(f.name, report->layers.*f.field, f.unit);
  } else {
    for (const E2eField& f : kEndToEnd) add(f.name, report->e2e.*f.field, f.unit);
    std::fprintf(stderr, "  %-24s %14.6g ms (not in the result)\n",
                 "query_p99_ms", report->e2e.query_p99_ms);
  }
  const bool correct = report->failed == 0 && report->attempted > 0;
  std::printf("host %s\n", HostFingerprintJson().c_str());
  std::printf(
      "{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
      "\"metrics\": {%s}}\n",
      correct ? "true" : "false", static_cast<long long>(report->attempted),
      static_cast<long long>(report->failed), metrics.c_str());
  std::fflush(stdout);
  return correct ? 0 : 3;
}

}  // namespace
}  // namespace xbench

int main(int argc, char** argv) { return xbench::Main(argc, argv); }
