#ifndef XJOIN_RELATIONAL_INTERSECT_KERNELS_IMPL_H_
#define XJOIN_RELATIONAL_INTERSECT_KERNELS_IMPL_H_

// Shared kernel bodies, stamped out once per SIMD level. Each variant
// TU (intersect_kernels.cc and the -msse4.2/-mavx2 TUs) instantiates
// Kernels<Ops> with an Ops policy supplying the vector primitive:
//
//   LinearLowerBound(keys, lo, hi, key) — first index in [lo, hi)
//     with keys[index] >= key, scanning forward block-wise with the
//     level's vector compare (scalar loop for the scalar policy and
//     for sub-block tails).
//   kLinearCutoff — window size below which LowerBound switches from
//     binary halving to the linear scan.
//   kScanBudget — how many keys a kMerge seek scans linearly before
//     falling back to the gallop bracket.
//
// Everything above the primitive — gallop bracketing, leapfrog
// align/advance, the resumable drain — is shared, which is what makes
// the counter-exactness contract in intersect_kernels.h hold by
// construction: all variants execute the same jump sequence.

#include <cstddef>
#include <cstdint>

#include "relational/intersect_kernels.h"

namespace xjoin {
namespace intersect_internal {

template <class Ops>
struct Kernels {
  static size_t LowerBound(const int64_t* keys, size_t lo, size_t hi,
                           int64_t key) {
    while (hi - lo > Ops::kLinearCutoff) {
      size_t mid = lo + (hi - lo) / 2;
      if (keys[mid] < key) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    return Ops::LinearLowerBound(keys, lo, hi, key);
  }

  static size_t Seek(const int64_t* keys, size_t pos, size_t hi, int64_t key,
                     IntersectStrategy strategy) {
    if (strategy == IntersectStrategy::kMerge) {
      // Linear-scan-first: near-equal cardinalities land a few keys
      // ahead, so a bounded forward scan usually resolves the seek
      // without the gallop's cache-unfriendly probes. The scan stays
      // scalar at every SIMD level — merge is chosen precisely when
      // gaps are a couple of keys, where a compare-and-branch beats
      // vector setup latency; the vector primitive earns its keep in
      // LowerBound's wide brackets below.
      size_t scan_hi =
          hi - pos > Ops::kScanBudget ? pos + Ops::kScanBudget : hi;
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

  // Leapfrog align: false if any cursor is exhausted; otherwise seek
  // every lagging cursor to the running max (one counted seek per jump)
  // until all agree on one key (cursor 0's current key).
  static bool Align(KeyCursor* cursors, size_t n, IntersectStrategy strategy,
                    int64_t* seeks) {
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

  // Leapfrog advance: step the lead cursor (one counted seek), then
  // realign.
  static bool Advance(KeyCursor* cursors, size_t n,
                      IntersectStrategy strategy, int64_t* seeks) {
    ++cursors[0].pos;
    ++*seeks;
    if (cursors[0].pos >= cursors[0].hi) return false;
    return Align(cursors, n, strategy, seeks);
  }

  static size_t Drain(KeyCursor* cursors, size_t n,
                      IntersectStrategy strategy, bool first, bool has_hi,
                      int64_t hi, int64_t* out, size_t cap, int64_t* seeks,
                      bool* done) {
    size_t count = 0;
    bool have = first ? Align(cursors, n, strategy, seeks)
                      : Advance(cursors, n, strategy, seeks);
    while (have) {
      int64_t key = cursors[0].keys[cursors[0].pos];
      if (has_hi && key >= hi) break;  // shard bound: drained dry
      out[count++] = key;
      if (count == cap) {
        *done = false;
        return count;
      }
      have = Advance(cursors, n, strategy, seeks);
    }
    *done = true;
    return count;
  }
};

}  // namespace intersect_internal
}  // namespace xjoin

#endif  // XJOIN_RELATIONAL_INTERSECT_KERNELS_IMPL_H_
