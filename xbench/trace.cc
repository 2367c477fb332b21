#include "trace.h"

#include <algorithm>
#include <utility>

namespace xbench {

namespace {

double NsToMs(int64_t ns) { return static_cast<double>(ns) / 1e6; }

// Length of the union of [start, end) intervals.
int64_t CoveredNs(std::vector<std::pair<int64_t, int64_t>> intervals) {
  std::sort(intervals.begin(), intervals.end());
  int64_t covered = 0;
  int64_t run_start = 0;
  int64_t run_end = 0;
  bool open = false;
  for (const auto& [start, end] : intervals) {
    if (!open || start > run_end) {
      if (open) covered += run_end - run_start;
      run_start = start;
      run_end = end;
      open = true;
    } else {
      run_end = std::max(run_end, end);
    }
  }
  if (open) covered += run_end - run_start;
  return covered;
}

}  // namespace

void TraceSummary::Add(const SpanBuffer& buffer) {
  const std::vector<Span>& spans = buffer.spans();
  const int32_t offset = static_cast<int32_t>(spans_.size());
  std::vector<std::vector<std::pair<int64_t, int64_t>>> children(spans.size());
  for (const Span& span : spans) {
    if (span.parent >= 0) {
      // Clip to the parent so a child never covers more than its parent.
      const Span& parent = spans[static_cast<size_t>(span.parent)];
      children[static_cast<size_t>(span.parent)].emplace_back(
          std::max(span.start_ns, parent.start_ns),
          std::min(span.end_ns, parent.end_ns));
    }
  }
  for (size_t i = 0; i < spans.size(); ++i) {
    Span merged = spans[i];
    if (merged.parent >= 0) merged.parent += offset;
    spans_.push_back(merged);
    const int64_t duration = merged.end_ns - merged.start_ns;
    self_ms_.push_back(NsToMs(duration - CoveredNs(std::move(children[i]))));
  }
}

std::vector<double> TraceSummary::SelfMs(const std::string& name) const {
  std::vector<double> out;
  for (size_t i = 0; i < spans_.size(); ++i) {
    if (name == spans_[i].name) out.push_back(self_ms_[i]);
  }
  return out;
}

std::vector<double> TraceSummary::DurationMs(const std::string& name) const {
  std::vector<double> out;
  for (const Span& span : spans_) {
    if (name == span.name) out.push_back(NsToMs(span.end_ns - span.start_ns));
  }
  return out;
}

double TraceSummary::TotalSelfMs(const std::string& name) const {
  double total = 0;
  for (double ms : SelfMs(name)) total += ms;
  return total;
}

double TraceSummary::TotalTreeMs(const std::string& root) const {
  // Parents precede their children in every buffer, so one forward pass
  // resolves each span's root.
  std::vector<int32_t> root_of(spans_.size());
  double total = 0;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const int32_t parent = spans_[i].parent;
    root_of[i] = parent < 0 ? static_cast<int32_t>(i)
                            : root_of[static_cast<size_t>(parent)];
    if (root == spans_[static_cast<size_t>(root_of[i])].name) {
      total += self_ms_[i];
    }
  }
  return total;
}

bool TraceSummary::WriteJsonl(const std::string& path) const {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(out,
                 "{\"id\":%zu,\"name\":\"%s\",\"request\":%lld,"
                 "\"parent\":%d,\"start_ns\":%lld,\"end_ns\":%lld,"
                 "\"self_ms\":%.6f}\n",
                 i, s.name, static_cast<long long>(s.request), s.parent,
                 static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns), self_ms_[i]);
  }
  return std::fclose(out) == 0;
}

void TraceSummary::PrintBreakdown(std::FILE* out) const {
  std::map<std::string, std::pair<double, int64_t>> by_name;
  double total = 0;
  for (size_t i = 0; i < spans_.size(); ++i) {
    auto& slot = by_name[spans_[i].name];
    slot.first += self_ms_[i];
    slot.second += 1;
    total += self_ms_[i];
  }
  std::fprintf(out, "%-20s %10s %12s %7s\n", "span", "count", "self_ms",
               "share");
  for (const auto& [name, slot] : by_name) {
    std::fprintf(out, "%-20s %10lld %12.3f %6.1f%%\n", name.c_str(),
                 static_cast<long long>(slot.second), slot.first,
                 total > 0 ? 100.0 * slot.first / total : 0.0);
  }
}

}  // namespace xbench
