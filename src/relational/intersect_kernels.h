#ifndef XJOIN_RELATIONAL_INTERSECT_KERNELS_H_
#define XJOIN_RELATIONAL_INTERSECT_KERNELS_H_

// SIMD galloping-intersection kernels over sorted key spans.
//
// The generic-join engine's hot loop is multi-way sorted-set
// intersection: leapfrog seeks over the key spans every trie level
// opens to (relational/trie_iterator.h).
// This module packages that loop as a table of function pointers — one
// table per SimdLevel (scalar / SSE4.2 / AVX2), selected once per
// engine run by ActiveIntersectKernel() — so the binary carries every
// variant and picks at runtime, staying runnable on baseline x86-64.
//
// Counter-exactness contract: every variant performs the *same logical
// leapfrog jump sequence* as the portable scalar table. A "seek" lands at
// exactly the same position and is counted exactly once no matter
// which table executes it; SIMD only accelerates the interior search
// of each seek (vectorized lower-bound probing and linear compare
// scans). Consequently gj.* counters and result bytes are identical
// across dispatch levels — the invariant tests/intersect_kernel_test.cc
// and tests/batch_test.cc enforce.
//
// Two seek strategies, selected per level from the span-size ratio:
//
//   kGallop — doubling gallop to bracket the target, then a vectorized
//     lower-bound probe inside the bracket. Wins when cardinalities
//     are skewed (the small side jumps far into the big side).
//   kMerge  — block-wise linear compare scan (4 keys per AVX2 step)
//     from the current position, falling back to gallop once a scan
//     budget is exhausted. Wins for near-equal cardinalities, where
//     seeks land a few keys ahead and galloping is overhead.
//
// Both land on the identical position (the std::lower_bound of the
// target), so the choice is a pure speed knob.

#include <cstddef>
#include <cstdint>

#include "common/simd.h"

namespace xjoin {

/// A borrowed cursor over one sorted, duplicate-free key range
/// [pos, hi). The kernels advance `pos` only.
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

/// One dispatchable kernel variant. All function pointers are non-null.
struct IntersectKernel {
  SimdLevel level;

  /// First index in [lo, hi) with keys[index] >= key, or hi.
  /// Binary-narrows to a small window, then probes it with the
  /// variant's vector compare (tails run scalar).
  size_t (*lower_bound)(const int64_t* keys, size_t lo, size_t hi,
                        int64_t key);

  /// One leapfrog seek from `pos`: returns the first index in
  /// [pos, hi) with keys[index] >= key, or hi. kGallop brackets by
  /// doubling then lower-bounds; kMerge linear-scans up to a budget
  /// first. Identical landing either way.
  size_t (*seek)(const int64_t* keys, size_t pos, size_t hi, int64_t key,
                 IntersectStrategy strategy);

  /// Resumable multi-way leapfrog drain, the engine's intersection at
  /// every level (cap 1 above the deepest level, a batch at it):
  /// `first` starts with an align (initial intersection) instead of an
  /// advance; every aligned key < `hi` (when `has_hi`) is appended to
  /// `out`; each underlying seek increments *seeks by one. Returns the
  /// number of keys produced and sets *done=false iff it stopped only
  /// because `cap` was reached (resume with first=false). Cursors hold
  /// their final positions either way.
  size_t (*drain)(KeyCursor* cursors, size_t num_cursors,
                  IntersectStrategy strategy, bool first, bool has_hi,
                  int64_t hi, int64_t* out, size_t cap, int64_t* seeks,
                  bool* done);
};

namespace intersect_internal {
// Per-TU registries: return null when the TU was compiled without the
// matching -m flag (non-x86 builds, or a toolchain lacking the flag).
const IntersectKernel* Sse42IntersectKernel();
const IntersectKernel* Avx2IntersectKernel();
}  // namespace intersect_internal

/// The table for an exact level, or null if that level was not
/// compiled into this binary. The scalar table always exists.
const IntersectKernel* IntersectKernelFor(SimdLevel level);

/// The best table at or below ActiveSimdLevel() that is actually
/// compiled in. Re-resolved per call so dispatch overrides (tests,
/// XJOIN_SIMD) take effect on the next engine run.
const IntersectKernel& ActiveIntersectKernel();

}  // namespace xjoin

#endif  // XJOIN_RELATIONAL_INTERSECT_KERNELS_H_
