// Micro-1 (google-benchmark): CSR trie construction, seek costs over
// a level's key span, and leapfrog intersection vs binary hash join on
// the relational substrate:
//
//   BM_TrieBuild            — radix sort + CSR level assembly
//   BM_TrieSeek             — one kernel seek into a level span
//   BM_TrieIterateSeekHeavy — the generic-join access pattern over spans
#include <benchmark/benchmark.h>

#include <algorithm>
#include <numeric>
#include <string>
#include <vector>

#include "common/dictionary.h"
#include "common/random.h"
#include "core/generic_join.h"
#include "relational/intersect_kernels.h"
#include "relational/operators.h"
#include "relational/trie.h"

namespace xjoin {
namespace {

Relation RandomBinary(Rng* rng, int64_t rows, int64_t domain) {
  auto schema = Schema::Make({"A", "B"});
  Relation rel(*schema);
  for (int64_t i = 0; i < rows; ++i) {
    rel.AppendRow({static_cast<int64_t>(rng->NextBounded(
                       static_cast<uint64_t>(domain))),
                   static_cast<int64_t>(rng->NextBounded(
                       static_cast<uint64_t>(domain)))});
  }
  return rel;
}

// --- Build: CSR + radix sort --------------------------------------------
void BM_TrieBuild(benchmark::State& state) {
  Rng rng(1);
  Relation rel = RandomBinary(&rng, state.range(0), state.range(0) / 4 + 1);
  for (auto _ : state) {
    auto trie = RelationTrie::Build(rel, {"A", "B"});
    benchmark::DoNotOptimize(trie);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_TrieBuild)->Arg(1000)->Arg(10000)->Arg(100000);

// --- Seek latency: one cold gallop+bsearch per iteration ---------------
void BM_TrieSeek(benchmark::State& state) {
  Rng rng(2);
  Relation rel = RandomBinary(&rng, state.range(0), state.range(0));
  auto trie = RelationTrie::Build(rel, {"A", "B"});
  Rng probe_rng(3);
  for (auto _ : state) {
    auto it = trie->NewIterator();
    KeySpan span = it->Open(0);
    int64_t target = static_cast<int64_t>(
        probe_rng.NextBounded(static_cast<uint64_t>(state.range(0))));
    size_t pos =
        Seek(span.keys, span.lo, span.hi, target, IntersectStrategy::kGallop);
    benchmark::DoNotOptimize(pos);
  }
}
BENCHMARK(BM_TrieSeek)->Arg(10000)->Arg(100000);

// --- Seek-heavy iteration: the generic-join access pattern -------------
// Walk the level-0 span by seeking ahead a few keys at a time; under
// each binding, open level 1 and sum its span. This is the inner loop
// shape of a leapfrog join (many short seeks, many per-parent child
// scans) and is where O(1) Open and per-parent spans pay off.
void BM_TrieIterateSeekHeavy(benchmark::State& state) {
  Rng rng(5);
  Relation rel = RandomBinary(&rng, state.range(0), state.range(0) / 4 + 1);
  auto trie = RelationTrie::Build(rel, {"A", "B"});
  for (auto _ : state) {
    int64_t sum = 0;
    auto it = trie->NewIterator();
    KeySpan level0 = it->Open(0);
    size_t pos = level0.lo;
    while (pos < level0.hi) {
      KeySpan level1 = it->Open(pos);
      for (size_t p = level1.lo; p < level1.hi; ++p) sum += level1.keys[p];
      it->Up();
      pos = Seek(level0.keys, pos, level0.hi, level0.keys[pos] + 3,
                 IntersectStrategy::kGallop);
    }
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_TrieIterateSeekHeavy)->Arg(10000)->Arg(100000);

// --- Triangle query: leapfrog (GenericJoin) vs binary hash joins -------
void BM_TriangleLeapfrog(benchmark::State& state) {
  Rng rng(4);
  int64_t rows = state.range(0);
  int64_t domain = rows / 8 + 2;
  auto mk = [&](const char* a, const char* b) {
    auto schema = Schema::Make({a, b});
    Relation rel(*schema);
    for (int64_t i = 0; i < rows; ++i) {
      rel.AppendRow({static_cast<int64_t>(rng.NextBounded(
                         static_cast<uint64_t>(domain))),
                     static_cast<int64_t>(rng.NextBounded(
                         static_cast<uint64_t>(domain)))});
    }
    return rel;
  };
  Relation r = mk("A", "B"), s = mk("B", "C"), t = mk("A", "C");
  auto tr = RelationTrie::Build(r, {"A", "B"});
  auto ts = RelationTrie::Build(s, {"B", "C"});
  auto tt = RelationTrie::Build(t, {"A", "C"});
  for (auto _ : state) {
    auto ir = tr->NewIterator();
    auto is = ts->NewIterator();
    auto it = tt->NewIterator();
    GenericJoinOptions opts;
    opts.attribute_order = {"A", "B", "C"};
    auto result = GenericJoin({{"R", {"A", "B"}, ir.get()},
                               {"S", {"B", "C"}, is.get()},
                               {"T", {"A", "C"}, it.get()}},
                              opts);
    benchmark::DoNotOptimize(result);
  }
}
BENCHMARK(BM_TriangleLeapfrog)->Arg(1000)->Arg(5000);

void BM_TriangleHashJoin(benchmark::State& state) {
  Rng rng(4);  // same seed: same data as leapfrog
  int64_t rows = state.range(0);
  int64_t domain = rows / 8 + 2;
  auto mk = [&](const char* a, const char* b) {
    auto schema = Schema::Make({a, b});
    Relation rel(*schema);
    for (int64_t i = 0; i < rows; ++i) {
      rel.AppendRow({static_cast<int64_t>(rng.NextBounded(
                         static_cast<uint64_t>(domain))),
                     static_cast<int64_t>(rng.NextBounded(
                         static_cast<uint64_t>(domain)))});
    }
    return rel;
  };
  Relation r = mk("A", "B"), s = mk("B", "C"), t = mk("A", "C");
  for (auto _ : state) {
    auto result = JoinAll({&r, &s, &t});
    benchmark::DoNotOptimize(result);
  }
}
BENCHMARK(BM_TriangleHashJoin)->Arg(1000)->Arg(5000);

}  // namespace
}  // namespace xjoin

BENCHMARK_MAIN();
