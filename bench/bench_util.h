// Shared helpers for the per-figure benchmark harnesses: timing wrappers
// and fixed-width table printing in the style the paper's evaluation
// reports (who wins, by what factor, where crossovers fall).
#ifndef XJOIN_BENCH_BENCH_UTIL_H_
#define XJOIN_BENCH_BENCH_UTIL_H_

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <string>
#include <vector>

#include "common/logging.h"
#include "common/metrics.h"
#include "common/simd.h"
#include "core/baseline.h"
#include "core/query.h"
#include "core/xjoin.h"
#include "relational/intersect_kernels.h"

namespace xjoin::bench {

/// Measurement of one engine run.
struct RunStats {
  double seconds = 0.0;
  int64_t output_rows = 0;
  int64_t max_intermediate = 0;
  int64_t total_intermediate = 0;
};

/// Runs XJoin once and extracts the Figure-3 quantities.
inline RunStats RunXJoin(const MultiModelQuery& query,
                         const PlanSettings& settings = {}) {
  Metrics metrics;
  EngineServices services;
  services.metrics = &metrics;
  Timer timer;
  auto result = ExecuteXJoin(query, settings, services);
  RunStats stats;
  stats.seconds = timer.ElapsedSeconds();
  XJ_CHECK(result.ok()) << result.status().ToString();
  stats.output_rows = static_cast<int64_t>(result->num_rows());
  stats.max_intermediate = metrics.Get("xjoin.max_intermediate");
  stats.total_intermediate = metrics.Get("gj.total_intermediate");
  return stats;
}

/// Runs the baseline once.
inline RunStats RunBaseline(const MultiModelQuery& query,
                            BaselineOptions options = {}) {
  Metrics metrics;
  options.metrics = &metrics;
  Timer timer;
  auto result = ExecuteBaseline(query, options);
  RunStats stats;
  stats.seconds = timer.ElapsedSeconds();
  XJ_CHECK(result.ok()) << result.status().ToString();
  stats.output_rows = static_cast<int64_t>(result->num_rows());
  stats.max_intermediate = metrics.Get("baseline.max_intermediate");
  stats.total_intermediate = metrics.Get("baseline.total_intermediate");
  return stats;
}

/// Fixed-width table printer.
class Table {
 public:
  explicit Table(std::vector<std::string> headers)
      : headers_(std::move(headers)) {}

  void AddRow(std::vector<std::string> cells) {
    rows_.push_back(std::move(cells));
  }

  void Print() const {
    std::vector<size_t> width(headers_.size());
    for (size_t c = 0; c < headers_.size(); ++c) width[c] = headers_[c].size();
    for (const auto& row : rows_) {
      for (size_t c = 0; c < row.size() && c < width.size(); ++c) {
        if (row[c].size() > width[c]) width[c] = row[c].size();
      }
    }
    auto print_row = [&](const std::vector<std::string>& cells) {
      for (size_t c = 0; c < cells.size(); ++c) {
        std::printf("%-*s  ", static_cast<int>(width[c]), cells[c].c_str());
      }
      std::printf("\n");
    };
    print_row(headers_);
    size_t total = 0;
    for (size_t w : width) total += w + 2;
    std::printf("%s\n", std::string(total, '-').c_str());
    for (const auto& row : rows_) print_row(row);
  }

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

inline std::string FmtInt(int64_t v) { return std::to_string(v); }

inline std::string FmtF(double v, int precision = 2) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", precision, v);
  return buf;
}

inline std::string FmtSeconds(double s) {
  char buf[64];
  if (s < 1e-3) {
    std::snprintf(buf, sizeof(buf), "%.1fus", s * 1e6);
  } else if (s < 1.0) {
    std::snprintf(buf, sizeof(buf), "%.2fms", s * 1e3);
  } else {
    std::snprintf(buf, sizeof(buf), "%.2fs", s);
  }
  return buf;
}

inline std::string FmtRatio(double num, double den) {
  if (den <= 0) return "n/a";
  return FmtF(num / den, 1) + "x";
}

inline void Banner(const std::string& title) {
  std::printf("\n=== %s ===\n\n", title.c_str());
}

/// Looks up a "--name=value" flag in argv; returns nullptr when absent.
/// This is the benches' entire CLI surface — no library, no state.
inline const char* FlagValue(int argc, char** argv, const char* name) {
  std::string prefix = std::string("--") + name + "=";
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]).rfind(prefix, 0) == 0) {
      return argv[i] + prefix.size();
    }
  }
  return nullptr;
}

/// Integer flag with fallback: "--threads=4".
inline int64_t IntFlag(int argc, char** argv, const char* name,
                       int64_t fallback) {
  const char* v = FlagValue(argc, argv, name);
  return v == nullptr ? fallback : std::strtoll(v, nullptr, 10);
}

/// Accumulates an array of flat JSON objects — the shared emission path
/// for the benches' machine-readable perf trajectories (BENCH_*.json CI
/// artifacts). Usage:
///   JsonArrayWriter json;
///   json.BeginObject().Field("workload", name).Field("seconds", s, 6);
///   json.Emit(FlagValue(argc, argv, "json"));
class JsonArrayWriter {
 public:
  /// Fluent handle onto the object currently being built.
  class Object {
   public:
    explicit Object(std::string* out) : out_(out) {}

    Object& Field(const char* name, const std::string& value) {
      Key(name);
      *out_ += '"';
      for (char c : value) {
        if (c == '"' || c == '\\') *out_ += '\\';
        *out_ += c;
      }
      *out_ += '"';
      return *this;
    }
    Object& Field(const char* name, const char* value) {
      return Field(name, std::string(value));
    }
    Object& Field(const char* name, int64_t value) {
      Key(name);
      *out_ += FmtInt(value);
      return *this;
    }
    Object& Field(const char* name, int value) {
      return Field(name, static_cast<int64_t>(value));
    }
    Object& Field(const char* name, double value, int precision = 6) {
      Key(name);
      *out_ += FmtF(value, precision);
      return *this;
    }

   private:
    void Key(const char* name) {
      if (!first_) *out_ += ", ";
      first_ = false;
      *out_ += '"';
      *out_ += name;
      *out_ += "\": ";
    }

    std::string* out_;
    bool first_ = true;
  };

  /// Starts the next object in the array. Finish one object's fields
  /// before beginning the next. Every row is stamped with the SIMD
  /// kernel the dispatch ladder resolves to on this host at emission
  /// time ("scalar" / "sse42" / "avx2"), so perf trajectories across CI
  /// runs are attributable to the code path that actually executed.
  Object BeginObject() {
    body_ += body_.empty() ? "\n  {" : "},\n  {";
    Object obj(&body_);
    obj.Field("kernel", SimdLevelName(ActiveIntersectKernel().level));
    return obj;
  }

  std::string ToString() const {
    std::string out = "[" + body_;
    if (!body_.empty()) out += "}\n";
    out += "]\n";
    return out;
  }

  /// Prints the array to stdout and, when `json_path` is non-null, also
  /// writes it there (the CI artifact).
  void Emit(const char* json_path) const {
    std::string json = ToString();
    std::printf("\nJSON:\n%s", json.c_str());
    if (json_path != nullptr) {
      std::FILE* f = std::fopen(json_path, "w");
      XJ_CHECK(f != nullptr) << "cannot open " << json_path;
      std::fputs(json.c_str(), f);
      std::fclose(f);
      std::printf("(written to %s)\n", json_path);
    }
  }

 private:
  std::string body_;
};

/// Rewrites `--json=PATH` into google-benchmark's
/// `--benchmark_out=PATH --benchmark_out_format=json` pair, passing
/// every other argument through — the gbench harnesses' (bench_micro_*)
/// share of the JSON-emission surface, kept benchmark-agnostic so this
/// header needs no benchmark.h.
inline std::vector<std::string> TranslateJsonFlag(int argc, char** argv) {
  std::vector<std::string> args;
  std::string json_path;
  for (int i = 0; i < argc; ++i) {
    if (std::strncmp(argv[i], "--json=", 7) == 0) {
      json_path = argv[i] + 7;
    } else {
      args.push_back(argv[i]);
    }
  }
  if (!json_path.empty()) {
    args.push_back("--benchmark_out=" + json_path);
    args.push_back("--benchmark_out_format=json");
  }
  return args;
}

/// Comma-separated integer list flag: "--threads=1,2,4,8".
inline std::vector<int> IntListFlag(int argc, char** argv, const char* name,
                                    std::vector<int> fallback) {
  const char* v = FlagValue(argc, argv, name);
  if (v == nullptr) return fallback;
  std::vector<int> out;
  const char* p = v;
  while (*p != '\0') {
    char* end = nullptr;
    long value = std::strtol(p, &end, 10);
    if (end == p) break;
    out.push_back(static_cast<int>(value));
    p = (*end == ',') ? end + 1 : end;
  }
  return out.empty() ? fallback : out;
}

}  // namespace xjoin::bench

#endif  // XJOIN_BENCH_BENCH_UTIL_H_
