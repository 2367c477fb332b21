// Kernel conformance: LowerBound, Seek and Drain against
// std::lower_bound and std::set_intersection oracles on randomized
// sorted duplicate-free arrays (the CSR level invariant) — empty
// inputs, no overlap, full overlap, unaligned starting offsets, tail
// lengths 0–16 — plus the strategy-independence the engine relies on:
// both seek strategies land on the same positions with the same seek
// counts.
#include "relational/intersect_kernels.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <random>
#include <set>
#include <vector>

namespace xjoin {
namespace {

// Sorted, duplicate-free keys — the CSR level-array invariant.
std::vector<int64_t> RandomSortedKeys(std::mt19937* rng, size_t n,
                                      int64_t universe) {
  std::uniform_int_distribution<int64_t> dist(0, universe);
  std::set<int64_t> keys;
  while (keys.size() < n) keys.insert(dist(*rng));
  return std::vector<int64_t>(keys.begin(), keys.end());
}

constexpr IntersectStrategy kStrategies[] = {IntersectStrategy::kGallop,
                                             IntersectStrategy::kMerge};

TEST(IntersectKernelTest, LowerBoundMatchesStdLowerBound) {
  std::mt19937 rng(20260808);
  // Tail lengths 0–16 straddle the binary/linear cutoff; offsets 0–7
  // start the range anywhere in the array.
  for (size_t len = 0; len <= 16; ++len) {
    for (size_t rep = 0; rep < 4; ++rep) {
      std::vector<int64_t> keys = RandomSortedKeys(&rng, len + 8, 200);
      for (size_t off = 0; off < 8; ++off) {
        const size_t lo = off;
        const size_t hi = off + len;
        for (int64_t probe = -1; probe <= 201; ++probe) {
          size_t expected = static_cast<size_t>(
              std::lower_bound(keys.begin() + static_cast<long>(lo),
                               keys.begin() + static_cast<long>(hi), probe) -
              keys.begin());
          EXPECT_EQ(LowerBound(keys.data(), lo, hi, probe), expected)
              << "len=" << len << " off=" << off << " probe=" << probe;
        }
      }
    }
  }
}

TEST(IntersectKernelTest, LowerBoundHandlesExtremeKeysAndLargeArrays) {
  std::mt19937 rng(7);
  std::vector<int64_t> keys =
      RandomSortedKeys(&rng, 500, std::numeric_limits<int64_t>::max() - 1);
  keys.insert(keys.begin(), std::numeric_limits<int64_t>::min());
  keys.push_back(std::numeric_limits<int64_t>::max());
  for (int64_t probe : {std::numeric_limits<int64_t>::min(),
                        std::numeric_limits<int64_t>::min() + 1, int64_t{0},
                        keys[250], keys[251] - 1,
                        std::numeric_limits<int64_t>::max() - 1,
                        std::numeric_limits<int64_t>::max()}) {
    size_t expected = static_cast<size_t>(
        std::lower_bound(keys.begin(), keys.end(), probe) - keys.begin());
    EXPECT_EQ(LowerBound(keys.data(), 0, keys.size(), probe), expected)
        << "probe=" << probe;
  }
}

TEST(IntersectKernelTest, SeekMatchesLowerBoundUnderBothStrategies) {
  std::mt19937 rng(42);
  for (size_t n : {size_t{0}, size_t{1}, size_t{3}, size_t{16}, size_t{65},
                   size_t{400}}) {
    std::vector<int64_t> keys = RandomSortedKeys(&rng, n, 4000);
    std::uniform_int_distribution<int64_t> probe_dist(-5, 4005);
    for (size_t rep = 0; rep < 200; ++rep) {
      int64_t probe = probe_dist(rng);
      size_t pos = n == 0 ? 0 : rep % n;
      size_t expected = static_cast<size_t>(
          std::lower_bound(keys.begin() + static_cast<long>(pos), keys.end(),
                           probe) -
          keys.begin());
      for (IntersectStrategy strategy : kStrategies) {
        EXPECT_EQ(Seek(keys.data(), pos, n, probe, strategy), expected)
            << IntersectStrategyName(strategy) << " n=" << n
            << " pos=" << pos << " probe=" << probe;
      }
    }
  }
}

// Drives one full drain (resuming across capacity exhaustion) and
// returns the produced keys plus the seek count.
struct DrainResult {
  std::vector<int64_t> keys;
  int64_t seeks = 0;
  std::vector<size_t> final_positions;
};

DrainResult RunDrain(const std::vector<std::vector<int64_t>>& lists,
                     IntersectStrategy strategy, bool has_hi, int64_t hi,
                     size_t cap) {
  std::vector<KeyCursor> cursors;
  for (const auto& list : lists) {
    cursors.push_back(KeyCursor{list.data(), 0, list.size()});
  }
  DrainResult result;
  std::vector<int64_t> buffer(cap);
  bool first = true;
  bool done = false;
  while (!done) {
    size_t produced = Drain(cursors.data(), cursors.size(), strategy, first,
                            has_hi, hi, buffer.data(), cap, &result.seeks,
                            &done);
    first = false;
    result.keys.insert(result.keys.end(), buffer.begin(),
                       buffer.begin() + static_cast<long>(produced));
  }
  for (const KeyCursor& c : cursors) result.final_positions.push_back(c.pos);
  return result;
}

std::vector<int64_t> OracleIntersection(
    const std::vector<std::vector<int64_t>>& lists, bool has_hi, int64_t hi) {
  std::vector<int64_t> acc = lists[0];
  for (size_t i = 1; i < lists.size(); ++i) {
    std::vector<int64_t> next;
    std::set_intersection(acc.begin(), acc.end(), lists[i].begin(),
                          lists[i].end(), std::back_inserter(next));
    acc = std::move(next);
  }
  if (has_hi) {
    acc.erase(std::lower_bound(acc.begin(), acc.end(), hi), acc.end());
  }
  return acc;
}

TEST(IntersectKernelTest, DrainMatchesSetIntersectionOracle) {
  std::mt19937 rng(1234);
  struct Shape {
    size_t ways;
    std::vector<size_t> sizes;
    int64_t universe;
  };
  const Shape shapes[] = {
      {2, {0, 10}, 50},       // one side empty
      {2, {12, 12}, 24},      // dense, near-total overlap
      {2, {8, 300}, 2000},    // skewed: gallop territory
      {2, {40, 45}, 90},      // near-equal: merge territory
      {3, {30, 40, 50}, 120},  // 3-way
      {4, {15, 20, 25, 30}, 60},
  };
  for (const Shape& shape : shapes) {
    for (size_t rep = 0; rep < 6; ++rep) {
      std::vector<std::vector<int64_t>> lists;
      for (size_t w = 0; w < shape.ways; ++w) {
        lists.push_back(
            RandomSortedKeys(&rng, shape.sizes[w], shape.universe));
      }
      // Disjoint-universe variant every third rep: zero overlap.
      if (rep % 3 == 2 && shape.ways == 2 && !lists[0].empty()) {
        for (auto& key : lists[1]) key += shape.universe + 10;
        std::sort(lists[1].begin(), lists[1].end());
      }
      for (bool has_hi : {false, true}) {
        int64_t hi = has_hi ? shape.universe / 2 : 0;
        std::vector<int64_t> expected =
            OracleIntersection(lists, has_hi, hi);
        // Seeks land on the same positions under either strategy, and a
        // resume continues the same jump sequence, so the seek count and
        // final cursors depend on neither the strategy nor the capacity.
        DrainResult reference = RunDrain(lists, IntersectStrategy::kGallop,
                                         has_hi, hi, 1024);
        for (IntersectStrategy strategy : kStrategies) {
          // Capacity 1 forces a resume per key; 3 and 1024 cover
          // mid-drain and single-shot paths.
          for (size_t cap : {size_t{1}, size_t{3}, size_t{1024}}) {
            DrainResult got = RunDrain(lists, strategy, has_hi, hi, cap);
            EXPECT_EQ(got.keys, expected)
                << IntersectStrategyName(strategy) << " ways=" << shape.ways
                << " cap=" << cap;
            EXPECT_EQ(got.seeks, reference.seeks)
                << IntersectStrategyName(strategy) << " cap=" << cap;
            EXPECT_EQ(got.final_positions, reference.final_positions)
                << IntersectStrategyName(strategy) << " cap=" << cap;
          }
        }
      }
    }
  }
}

TEST(IntersectKernelTest, StrategySelectionFollowsTheSkewRatio) {
  // 2-way near-equal goes merge; skew beyond the ratio, or 3+ ways,
  // goes gallop.
  EXPECT_EQ(ChooseIntersectStrategy(2, 100, 100), IntersectStrategy::kMerge);
  EXPECT_EQ(ChooseIntersectStrategy(2, 100, 100 * kMergeSkewRatio),
            IntersectStrategy::kMerge);
  EXPECT_EQ(ChooseIntersectStrategy(2, 100, 100 * kMergeSkewRatio + 1),
            IntersectStrategy::kGallop);
  EXPECT_EQ(ChooseIntersectStrategy(3, 100, 100), IntersectStrategy::kGallop);
  EXPECT_EQ(ChooseIntersectStrategy(2, 0, 50), IntersectStrategy::kGallop);
}

}  // namespace
}  // namespace xjoin
