#ifndef XJOIN_RELATIONAL_INTERSECT_KERNELS_H_
#define XJOIN_RELATIONAL_INTERSECT_KERNELS_H_

// The galloping-intersection kernel over sorted key spans.
//
// The generic-join engine's hot loop is multi-way sorted-set
// intersection: leapfrog seeks over the key spans every trie level
// opens to (relational/trie_iterator.h). This header holds that loop as
// plain inline functions so core/generic_join.cc inlines them: a
// lower bound, one leapfrog seek, and the resumable multi-way drain.
//
// There is one kernel, portable scalar code. Worst-case optimality
// comes from the leapfrog jump sequence (paper Lemma 3.5), not from
// vector width; docs/ARCHITECTURE.md ("Intersection kernel") records
// the measurements behind having no SSE4.2/AVX2 variant. Every seek is
// counted exactly once, so gj.* counters follow the jump sequence
// alone.
//
// Two seek strategies, selected from the span-size ratio:
//
//   kGallop — doubling gallop to bracket the target, then a lower
//     bound inside the bracket. Wins when cardinalities are skewed
//     (the small side jumps far into the big side).
//   kMerge  — linear compare scan from the current position, falling
//     back to gallop once a scan budget is exhausted. Wins for
//     near-equal cardinalities, where seeks land a few keys ahead and
//     galloping is overhead.
//
// Both land on the identical position (the std::lower_bound of the
// target), so the choice is a pure speed knob.

#include <cstddef>
#include <cstdint>

#include "common/simd.h"

namespace xjoin {

/// A borrowed cursor over one sorted, duplicate-free key range
/// [pos, hi). The kernel advances `pos` only.
struct KeyCursor {
  const int64_t* keys = nullptr;
  size_t pos = 0;
  size_t hi = 0;
};

enum class IntersectStrategy : int {
  kGallop = 0,
  kMerge = 1,
};

inline const char* IntersectStrategyName(IntersectStrategy strategy) {
  return strategy == IntersectStrategy::kMerge ? "merge" : "gallop";
}

/// Cardinality-skew threshold: at or below this max/min estimate ratio
/// a 2-way intersection runs kMerge, above it (or with 3+ cursors)
/// kGallop. Shared by the planner (EXPLAIN rendering) and the engine
/// (per-prefix re-selection) so the recorded choice matches execution.
inline constexpr int64_t kMergeSkewRatio = 8;

inline IntersectStrategy ChooseIntersectStrategy(size_t num_cursors,
                                                 int64_t min_estimate,
                                                 int64_t max_estimate) {
  if (num_cursors == 2 && min_estimate > 0 &&
      max_estimate <= min_estimate * kMergeSkewRatio) {
    return IntersectStrategy::kMerge;
  }
  return IntersectStrategy::kGallop;
}

/// Window size below which LowerBound stops halving and scans.
inline constexpr size_t kLinearCutoff = 8;
/// Keys a kMerge seek scans linearly before it gallops.
inline constexpr size_t kScanBudget = 16;

/// First index in [lo, hi) with keys[index] >= key, or hi.
/// Halves the window down to kLinearCutoff keys, then scans it.
inline size_t LowerBound(const int64_t* keys, size_t lo, size_t hi,
                         int64_t key) {
  // Each halving step is a select, not a branch: its outcome is a coin
  // flip per probe, which a branch would mispredict half the time.
  size_t n = hi - lo;
  while (n > kLinearCutoff) {
    const size_t half = n / 2;
    lo = keys[lo + half - 1] < key ? lo + half : lo;
    n -= half;
  }
  hi = lo + n;
  while (lo < hi && keys[lo] < key) ++lo;
  return lo;
}

/// One leapfrog seek from `pos`: returns the first index in [pos, hi)
/// with keys[index] >= key, or hi. kGallop brackets by doubling then
/// lower-bounds; kMerge linear-scans up to kScanBudget keys first.
/// Identical landing either way.
inline size_t Seek(const int64_t* keys, size_t pos, size_t hi, int64_t key,
                   IntersectStrategy strategy) {
  if (strategy == IntersectStrategy::kMerge) {
    // Linear-scan-first: near-equal cardinalities land a few keys
    // ahead, so a bounded forward scan usually resolves the seek
    // without the gallop's cache-unfriendly probes.
    size_t scan_hi = hi - pos > kScanBudget ? pos + kScanBudget : hi;
    size_t scanned = pos;
    while (scanned < scan_hi && keys[scanned] < key) ++scanned;
    if (scanned < scan_hi || scan_hi == hi) return scanned;
    pos = scanned;  // everything before `scanned` is < key: gallop on
  }
  size_t base = pos;
  size_t step = 1;
  while (base + step < hi && keys[base + step] < key) {
    base += step;
    step <<= 1;
  }
  size_t bracket_hi = base + step < hi ? base + step : hi;
  return LowerBound(keys, base, bracket_hi, key);
}

namespace internal {

// Leapfrog align: false if any cursor is exhausted; otherwise seeks
// every lagging cursor to the running max (one counted seek per jump)
// until all agree on one key (cursor 0's current key).
inline bool LeapfrogAlign(KeyCursor* cursors, size_t n,
                          IntersectStrategy strategy, int64_t* seeks) {
  for (size_t i = 0; i < n; ++i) {
    if (cursors[i].pos >= cursors[i].hi) return false;
  }
  for (;;) {
    int64_t max_key = cursors[0].keys[cursors[0].pos];
    for (size_t i = 1; i < n; ++i) {
      int64_t key = cursors[i].keys[cursors[i].pos];
      if (key > max_key) max_key = key;
    }
    bool all_equal = true;
    for (size_t i = 0; i < n; ++i) {
      KeyCursor& c = cursors[i];
      if (c.keys[c.pos] < max_key) {
        c.pos = Seek(c.keys, c.pos, c.hi, max_key, strategy);
        ++*seeks;
        if (c.pos >= c.hi) return false;
        if (c.keys[c.pos] > max_key) {
          all_equal = false;
          break;  // overshot: restart with the new max
        }
      }
    }
    if (all_equal) return true;
  }
}

// Leapfrog advance: steps the lead cursor (one counted seek), then
// realigns.
inline bool LeapfrogAdvance(KeyCursor* cursors, size_t n,
                            IntersectStrategy strategy, int64_t* seeks) {
  ++cursors[0].pos;
  ++*seeks;
  if (cursors[0].pos >= cursors[0].hi) return false;
  return LeapfrogAlign(cursors, n, strategy, seeks);
}

}  // namespace internal

/// Resumable multi-way leapfrog drain, the engine's intersection at
/// every level (cap 1 above the deepest level, a block at it): `first`
/// starts with an align (initial intersection) instead of an advance;
/// every aligned key < `hi` (when `has_hi`) is appended to `out`; each
/// underlying seek increments *seeks by one. Returns the number of keys
/// produced and sets *done=false iff it stopped only because `cap` was
/// reached (resume with first=false). Cursors hold their final
/// positions either way.
inline size_t Drain(KeyCursor* cursors, size_t n, IntersectStrategy strategy,
                    bool first, bool has_hi, int64_t hi, int64_t* out,
                    size_t cap, int64_t* seeks, bool* done) {
  size_t count = 0;
  bool have = first ? internal::LeapfrogAlign(cursors, n, strategy, seeks)
                    : internal::LeapfrogAdvance(cursors, n, strategy, seeks);
  while (have) {
    int64_t key = cursors[0].keys[cursors[0].pos];
    if (has_hi && key >= hi) break;  // shard bound: drained dry
    out[count++] = key;
    if (count == cap) {
      *done = false;
      return count;
    }
    have = internal::LeapfrogAdvance(cursors, n, strategy, seeks);
  }
  *done = true;
  return count;
}

/// The host's vector ISA, which the kernel does not use. Kept only
/// because the benchmark harness prints
/// SimdLevelName(ActiveIntersectKernel().level) in its host
/// fingerprint; delete it with the next change to that harness.
struct HostVectorIsa {
  SimdLevel level;
};

inline HostVectorIsa ActiveIntersectKernel() {
  return HostVectorIsa{DetectedSimdLevel()};
}

}  // namespace xjoin

#endif  // XJOIN_RELATIONAL_INTERSECT_KERNELS_H_
