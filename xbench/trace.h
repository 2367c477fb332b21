// Benchmark-side tracing: spans recorded around the calls the benchmark
// makes into the library's public API (the library itself carries no
// tracing). Each thread records into its own SpanBuffer; buffers are
// merged into a TraceSummary when the run ends, which computes per-span
// self time and writes the spans out.
#ifndef XBENCH_TRACE_H_
#define XBENCH_TRACE_H_

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

namespace xbench {

/// One traced interval. `parent` indexes the same buffer (-1 = root);
/// spans of one request share `request`.
struct Span {
  const char* name = "";
  int64_t request = 0;
  int32_t parent = -1;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

/// Nanoseconds on the steady clock.
inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Append-only span store for one thread. Not thread-safe.
class SpanBuffer {
 public:
  int32_t Begin(const char* name, int64_t request, int32_t parent = -1) {
    spans_.push_back(Span{name, request, parent, NowNs(), 0});
    return static_cast<int32_t>(spans_.size() - 1);
  }
  void End(int32_t id) { spans_[static_cast<size_t>(id)].end_ns = NowNs(); }
  /// Renames a span once its outcome is known (e.g. a cache miss).
  void Rename(int32_t id, const char* name) {
    spans_[static_cast<size_t>(id)].name = name;
  }

  const std::vector<Span>& spans() const { return spans_; }

 private:
  std::vector<Span> spans_;
};

/// RAII span; a null buffer records nothing.
class ScopedSpan {
 public:
  ScopedSpan(SpanBuffer* buffer, const char* name, int64_t request,
             int32_t parent = -1)
      : buffer_(buffer),
        id_(buffer == nullptr ? -1 : buffer->Begin(name, request, parent)) {}
  ~ScopedSpan() {
    if (buffer_ != nullptr) buffer_->End(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  int32_t id() const { return id_; }

 private:
  SpanBuffer* buffer_;
  int32_t id_;
};

/// Merged spans of every buffer, with each span's self time: its
/// duration minus the part of it that its children cover.
class TraceSummary {
 public:
  void Add(const SpanBuffer& buffer);

  /// Self times (ms) of every span called `name`.
  std::vector<double> SelfMs(const std::string& name) const;
  /// Durations (ms) of every span called `name`.
  std::vector<double> DurationMs(const std::string& name) const;
  /// Sum of self time (ms) over spans called `name`.
  double TotalSelfMs(const std::string& name) const;
  /// Sum of self time (ms) over every span under roots called `root`,
  /// the roots included.
  double TotalTreeMs(const std::string& root) const;

  /// One JSON object per span.
  bool WriteJsonl(const std::string& path) const;

  /// Self time per span name, with its share of the total, on `out`.
  void PrintBreakdown(std::FILE* out) const;

 private:
  std::vector<Span> spans_;
  std::vector<double> self_ms_;
};

}  // namespace xbench

#endif  // XBENCH_TRACE_H_
