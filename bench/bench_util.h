// Shared helpers for the per-figure benchmark harnesses: timing wrappers
// and fixed-width table printing in the style the paper's evaluation
// reports (who wins, by what factor, where crossovers fall).
#ifndef XJOIN_BENCH_BENCH_UTIL_H_
#define XJOIN_BENCH_BENCH_UTIL_H_

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <string>
#include <vector>

#include "common/logging.h"
#include "common/metrics.h"
#include "core/baseline.h"
#include "core/query.h"
#include "core/xjoin.h"

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

/// Integer flag with fallback: "--reps=5".
inline int64_t IntFlag(int argc, char** argv, const char* name,
                       int64_t fallback) {
  const char* v = FlagValue(argc, argv, name);
  return v == nullptr ? fallback : std::strtoll(v, nullptr, 10);
}

}  // namespace xjoin::bench

#endif  // XJOIN_BENCH_BENCH_UTIL_H_
