// Execution metrics: named counters recorded by the join engines so the
// benchmark harness can report intermediate-result sizes, seek counts,
// and per-stage timings the same way the paper's Figure 3 does.
#ifndef XJOIN_COMMON_METRICS_H_
#define XJOIN_COMMON_METRICS_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>

namespace xjoin {

/// A bag of named int64 counters. Engines take a Metrics* (may be null,
/// in which case recording is a no-op) and bump counters as they run.
class Metrics {
 public:
  /// Adds `delta` to counter `name`, creating it at 0 if absent.
  void Add(const std::string& name, int64_t delta) { counters_[name] += delta; }

  /// Sets counter `name` to max(current, value); used for high-watermarks.
  void RecordMax(const std::string& name, int64_t value) {
    auto& slot = counters_[name];
    if (value > slot) slot = value;
  }

  /// Current value; 0 for unknown counters.
  int64_t Get(const std::string& name) const {
    auto it = counters_.find(name);
    return it == counters_.end() ? 0 : it->second;
  }

  /// All counters in name order (stable output for tests and benches).
  const std::map<std::string, int64_t>& counters() const { return counters_; }

  /// Adds every counter of `other` into this bag. This is an addition
  /// merge: exact for Add-style counters, which is all the per-shard /
  /// per-worker scratch Metrics of the parallel engines ever record —
  /// high-watermark (RecordMax) counters must not be merged this way.
  void MergeFrom(const Metrics& other) {
    for (const auto& [name, value] : other.counters_) counters_[name] += value;
  }

  void Clear() { counters_.clear(); }

  /// One "name=value" pair per line.
  std::string ToString() const;

 private:
  std::map<std::string, int64_t> counters_;
};

/// Helper: bump a possibly-null Metrics. The counter name is only
/// materialized as a std::string when there is a bag to record into, so
/// a metrics-free hot loop pays nothing for long literal names.
inline void MetricsAdd(Metrics* m, std::string_view name, int64_t delta) {
  if (m != nullptr) m->Add(std::string(name), delta);
}

/// Wall-clock stopwatch with microsecond resolution.
class Timer {
 public:
  Timer() : start_(Clock::now()) {}

  /// Resets the epoch to now.
  void Restart() { start_ = Clock::now(); }

  /// Microseconds elapsed since construction or the last Restart().
  int64_t ElapsedMicros() const {
    return std::chrono::duration_cast<std::chrono::microseconds>(Clock::now() -
                                                                 start_)
        .count();
  }

  /// Seconds elapsed, as a double.
  double ElapsedSeconds() const {
    return static_cast<double>(ElapsedMicros()) / 1e6;
  }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

}  // namespace xjoin

#endif  // XJOIN_COMMON_METRICS_H_
