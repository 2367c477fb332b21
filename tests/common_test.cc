#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <set>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "common/budget.h"
#include "common/cancel.h"
#include "common/dictionary.h"
#include "common/fault.h"
#include "common/lru_cache.h"
#include "common/metrics.h"
#include "common/random.h"
#include "common/status.h"
#include "common/string_util.h"

namespace xjoin {
namespace {

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::InvalidArgument("bad thing");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(s.message(), "bad thing");
  EXPECT_EQ(s.ToString(), "InvalidArgument: bad thing");
}

TEST(StatusTest, WithContextPrepends) {
  Status s = Status::ParseError("line 3").WithContext("file.csv");
  EXPECT_EQ(s.message(), "file.csv: line 3");
  EXPECT_TRUE(Status::OK().WithContext("x").ok());
}

TEST(StatusTest, AllCodesHaveNames) {
  for (auto code :
       {StatusCode::kOk, StatusCode::kInvalidArgument, StatusCode::kParseError,
        StatusCode::kNotFound, StatusCode::kAlreadyExists,
        StatusCode::kOutOfRange, StatusCode::kUnimplemented,
        StatusCode::kInternal, StatusCode::kIOError,
        StatusCode::kResourceExhausted, StatusCode::kDeadlineExceeded,
        StatusCode::kCancelled}) {
    EXPECT_STRNE(StatusCodeToString(code), "Unknown");
  }
}

Result<int64_t> ParsePositive(const std::string& s) {
  XJ_ASSIGN_OR_RETURN(int64_t v, ParseInt64(s));
  if (v <= 0) return Status::OutOfRange("not positive: " + s);
  return v;
}

TEST(ResultTest, ValueAndError) {
  Result<int> ok(42);
  EXPECT_TRUE(ok.ok());
  EXPECT_EQ(*ok, 42);
  EXPECT_EQ(ok.ValueOr(-1), 42);

  Result<int> err(Status::NotFound("nope"));
  EXPECT_FALSE(err.ok());
  EXPECT_EQ(err.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(err.ValueOr(-1), -1);
}

TEST(ResultTest, AssignOrReturnPropagates) {
  EXPECT_TRUE(ParsePositive("17").ok());
  EXPECT_EQ(*ParsePositive("17"), 17);
  EXPECT_EQ(ParsePositive("-3").status().code(), StatusCode::kOutOfRange);
  EXPECT_EQ(ParsePositive("xyz").status().code(), StatusCode::kParseError);
}

TEST(DictionaryTest, InternIsIdempotent) {
  Dictionary d;
  int64_t a = d.Intern("apple");
  int64_t b = d.Intern("banana");
  EXPECT_NE(a, b);
  EXPECT_EQ(d.Intern("apple"), a);
  EXPECT_EQ(d.size(), 2);
  EXPECT_EQ(d.Decode(a), "apple");
  EXPECT_EQ(d.Decode(b), "banana");
}

TEST(DictionaryTest, LookupDoesNotInsert) {
  Dictionary d;
  EXPECT_EQ(d.Lookup("ghost"), -1);
  EXPECT_EQ(d.size(), 0);
  d.Intern("real");
  EXPECT_EQ(d.Lookup("real"), 0);
}

TEST(DictionaryTest, CodesAreDense) {
  Dictionary d;
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(d.Intern("s" + std::to_string(i)), i);
  }
  // DecodeMany marks codes outside the dictionary with nullptr.
  const int64_t probes[] = {99, 100, -1, 0};
  const std::string* decoded[4] = {};
  d.DecodeMany(probes, 4, decoded);
  ASSERT_NE(decoded[0], nullptr);
  EXPECT_EQ(*decoded[0], "s99");
  EXPECT_EQ(decoded[1], nullptr);
  EXPECT_EQ(decoded[2], nullptr);
  ASSERT_NE(decoded[3], nullptr);
  EXPECT_EQ(decoded[3], &d.Decode(0));
}

TEST(DictionaryTest, IndexSurvivesMoves) {
  // The index keys each string by a view into the dictionary's own
  // storage, so those views must stay valid when the dictionary moves.
  Dictionary d;
  const std::string long_value(100, 'x');  // heap-allocated, unlike "s0"
  EXPECT_EQ(d.Intern("s0"), 0);
  EXPECT_EQ(d.Intern(long_value), 1);
  Dictionary moved(std::move(d));
  EXPECT_EQ(moved.Lookup("s0"), 0);
  EXPECT_EQ(moved.Intern(long_value), 1);
  for (int i = 1; i < 1000; ++i) moved.Intern("s" + std::to_string(i));
  Dictionary assigned;
  assigned.Intern("other");
  assigned = std::move(moved);
  EXPECT_EQ(assigned.size(), 1001);
  EXPECT_EQ(assigned.Lookup("s0"), 0);
  EXPECT_EQ(assigned.Lookup(long_value), 1);
  EXPECT_EQ(assigned.Lookup("s999"), 1000);
  EXPECT_EQ(assigned.Lookup("other"), -1);
  EXPECT_EQ(assigned.Intern("s500"), 501);
  EXPECT_EQ(assigned.Decode(1), long_value);
}

TEST(DictionaryTest, InternManyMatchesInternInTurn) {
  // Duplicates inside one call, and strings interned before it, get the
  // codes a loop of Intern calls would give.
  Dictionary bulk;
  Dictionary single;
  bulk.Intern("seen");
  single.Intern("seen");
  std::vector<std::string> strings;
  for (int i = 0; i < 3000; ++i) {
    strings.push_back("v" + std::to_string(i % 1700));
  }
  strings.push_back("seen");
  strings.push_back(std::string(40, 'L'));
  std::vector<std::string_view> views(strings.begin(), strings.end());
  std::vector<int64_t> codes(views.size(), -2);
  bulk.InternMany(views.data(), views.size(), codes.data());
  for (size_t i = 0; i < strings.size(); ++i) {
    EXPECT_EQ(codes[i], single.Intern(strings[i])) << strings[i];
  }
  EXPECT_EQ(bulk.size(), single.size());
  EXPECT_EQ(bulk.size(), 1 + 1700 + 1);
  bulk.InternMany(views.data(), 0, codes.data());  // empty call: no-op
  EXPECT_EQ(bulk.size(), single.size());
}

// Writers intern overlapping strings, in bulk and one at a time, while
// readers decode and look up whatever codes exist so far. Every code a
// reader sees must decode to a string that looks up to that code, and
// the final codes must be dense and bijective.
TEST(DictionaryTest, ConcurrentWritersAndReadersKeepCodesBijective) {
  constexpr int kStrings = 20000;
  std::vector<std::string> strings;
  for (int i = 0; i < kStrings; ++i) {
    strings.push_back("value-" + std::to_string(i) +
                      (i % 3 == 0 ? std::string(24, 'x') : std::string()));
  }
  Dictionary dict;
  std::atomic<int> writers_left{2};
  std::atomic<bool> reader_failed{false};

  auto bulk_writer = [&] {
    std::vector<std::string_view> views;
    std::vector<int64_t> codes(Dictionary::kBulkChunk);
    for (int at = 0; at < kStrings; at += 500) {
      views.clear();
      for (int i = at; i < std::min(kStrings, at + 500); ++i) {
        views.push_back(strings[static_cast<size_t>(i)]);
      }
      dict.InternMany(views.data(), views.size(), codes.data());
    }
    --writers_left;
  };
  auto single_writer = [&] {
    for (int i = kStrings - 1; i >= 0; --i) {
      dict.Intern(strings[static_cast<size_t>(i)]);
    }
    --writers_left;
  };
  auto reader = [&](uint64_t seed) {
    Rng rng(seed);
    std::vector<int64_t> probes(64);
    std::vector<const std::string*> decoded(64);
    while (writers_left.load() > 0) {
      const int64_t size = dict.size();
      if (size == 0) continue;
      for (int64_t& code : probes) {
        code = static_cast<int64_t>(
            rng.NextBounded(static_cast<uint64_t>(size)));
      }
      dict.DecodeMany(probes.data(), probes.size(), decoded.data());
      for (size_t i = 0; i < probes.size(); ++i) {
        if (decoded[i] == nullptr || dict.Lookup(*decoded[i]) != probes[i] ||
            &dict.Decode(probes[i]) != decoded[i]) {
          reader_failed = true;
        }
      }
    }
  };
  std::vector<std::thread> threads;
  threads.emplace_back(bulk_writer);
  threads.emplace_back(single_writer);
  threads.emplace_back(reader, 1);
  threads.emplace_back(reader, 2);
  for (std::thread& t : threads) t.join();

  EXPECT_FALSE(reader_failed.load());
  ASSERT_EQ(dict.size(), kStrings);
  std::set<int64_t> codes;
  for (const std::string& s : strings) {
    const int64_t code = dict.Lookup(s);
    ASSERT_GE(code, 0) << s;
    EXPECT_EQ(dict.Decode(code), s);
    codes.insert(code);
  }
  EXPECT_EQ(codes.size(), static_cast<size_t>(kStrings));
  EXPECT_EQ(*codes.begin(), 0);
  EXPECT_EQ(*codes.rbegin(), kStrings - 1);
}

TEST(RngTest, Deterministic) {
  Rng a(123), b(123), c(124);
  EXPECT_EQ(a.Next64(), b.Next64());
  EXPECT_NE(a.Next64(), c.Next64());
}

TEST(RngTest, BoundedStaysInRange) {
  Rng rng(5);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.NextBounded(7), 7u);
    int64_t v = rng.NextInRange(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
  }
}

TEST(RngTest, DoubleInUnitInterval) {
  Rng rng(6);
  for (int i = 0; i < 1000; ++i) {
    double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RngTest, ShuffleIsPermutation) {
  Rng rng(7);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  auto orig = v;
  rng.Shuffle(&v);
  std::multiset<int> a(v.begin(), v.end()), b(orig.begin(), orig.end());
  EXPECT_EQ(a, b);
}

TEST(ZipfTest, ThetaZeroIsUniformish) {
  Rng rng(8);
  ZipfGenerator zipf(10, 0.0);
  std::vector<int> counts(10, 0);
  for (int i = 0; i < 10000; ++i) ++counts[zipf.Next(&rng)];
  for (int c : counts) {
    EXPECT_GT(c, 700);
    EXPECT_LT(c, 1300);
  }
}

TEST(ZipfTest, SkewPrefersLowRanks) {
  Rng rng(9);
  ZipfGenerator zipf(100, 1.2);
  std::vector<int> counts(100, 0);
  for (int i = 0; i < 20000; ++i) ++counts[zipf.Next(&rng)];
  EXPECT_GT(counts[0], counts[10]);
  EXPECT_GT(counts[0], 2000);  // rank 0 dominates under theta=1.2
}

TEST(ZipfTest, SingletonDomain) {
  Rng rng(10);
  ZipfGenerator zipf(1, 2.0);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(zipf.Next(&rng), 0u);
}

TEST(StringUtilTest, Split) {
  EXPECT_EQ(SplitString("a,b,c", ',').size(), 3u);
  EXPECT_EQ(SplitString("a,,c", ',')[1], "");
  EXPECT_EQ(SplitString("", ',').size(), 1u);
  EXPECT_EQ(SplitString("x", ',')[0], "x");
}

TEST(StringUtilTest, Trim) {
  EXPECT_EQ(TrimWhitespace("  hi \t\n"), "hi");
  EXPECT_EQ(TrimWhitespace(""), "");
  EXPECT_EQ(TrimWhitespace(" \t "), "");
}

TEST(StringUtilTest, Join) {
  EXPECT_EQ(JoinStrings({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(JoinStrings({}, ","), "");
}

TEST(StringUtilTest, ParseInt64) {
  EXPECT_EQ(*ParseInt64("42"), 42);
  EXPECT_EQ(*ParseInt64(" -7 "), -7);
  EXPECT_FALSE(ParseInt64("4x").ok());
  EXPECT_FALSE(ParseInt64("").ok());
  EXPECT_FALSE(ParseInt64("999999999999999999999999").ok());
}

TEST(StringUtilTest, ParseDouble) {
  EXPECT_DOUBLE_EQ(*ParseDouble("3.5"), 3.5);
  EXPECT_DOUBLE_EQ(*ParseDouble("-1e3"), -1000.0);
  EXPECT_FALSE(ParseDouble("3.5z").ok());
  EXPECT_FALSE(ParseDouble("").ok());
}

TEST(StringUtilTest, ParseUint64) {
  EXPECT_EQ(*ParseUint64("42"), 42u);
  EXPECT_EQ(*ParseUint64(" 1234 "), 1234u);
  EXPECT_EQ(*ParseUint64("18446744073709551615"), UINT64_MAX);
  // strtoull would silently wrap "-1"; the parser must reject signs.
  EXPECT_FALSE(ParseUint64("-1").ok());
  EXPECT_FALSE(ParseUint64("+3").ok());
  EXPECT_FALSE(ParseUint64("").ok());
  EXPECT_FALSE(ParseUint64("12x").ok());
  EXPECT_FALSE(ParseUint64("banana").ok());
  EXPECT_FALSE(ParseUint64("18446744073709551616").ok());  // overflow
}

TEST(StringUtilTest, EnvUint64OrDefaultHandlesUnsetValidAndGarbage) {
  const char* kName = "XJOIN_TEST_ENV_U64";
  ::unsetenv(kName);
  EXPECT_EQ(EnvUint64OrDefault(kName, 7), 7u);
  ::setenv(kName, "1234", 1);
  EXPECT_EQ(EnvUint64OrDefault(kName, 7), 1234u);
  // A typo'd value must warn and fall back deterministically, not
  // silently become 0 (the old strtoull behavior).
  ::setenv(kName, "banana", 1);
  EXPECT_EQ(EnvUint64OrDefault(kName, 7), 7u);
  ::setenv(kName, "-3", 1);
  EXPECT_EQ(EnvUint64OrDefault(kName, 7), 7u);
  ::setenv(kName, "", 1);
  EXPECT_EQ(EnvUint64OrDefault(kName, 7), 7u);
  ::unsetenv(kName);
}

TEST(StatusTest, RetryInfoAttachesAndComparesEqual) {
  Status plain = Status::ResourceExhausted("full");
  EXPECT_FALSE(plain.retry_info().has_value());
  Status hinted = plain.WithRetryInfo(RetryInfo{5000, 3});
  ASSERT_TRUE(hinted.retry_info().has_value());
  EXPECT_EQ(hinted.retry_info()->retry_after_micros, 5000);
  EXPECT_EQ(hinted.retry_info()->queue_depth, 3);
  // retry_info participates in equality: a hinted status is not the
  // plain one.
  EXPECT_FALSE(plain == hinted);
  EXPECT_TRUE(hinted == plain.WithRetryInfo(RetryInfo{5000, 3}));
  // No-op on success.
  EXPECT_FALSE(Status::OK().WithRetryInfo(RetryInfo{1, 1}).retry_info());
}

TEST(StatusTest, WithContextPreservesRetryInfo) {
  Status st = Status::ResourceExhausted("pool full")
                  .WithRetryInfo(RetryInfo{2500, 8})
                  .WithContext("tenant admission");
  ASSERT_TRUE(st.retry_info().has_value());
  EXPECT_EQ(st.retry_info()->retry_after_micros, 2500);
  EXPECT_EQ(st.retry_info()->queue_depth, 8);
  EXPECT_EQ(st.message(), "tenant admission: pool full");
}

TEST(StringUtilTest, StartsEndsWith) {
  EXPECT_TRUE(StartsWith("@name", "@"));
  EXPECT_FALSE(StartsWith("", "@"));
  EXPECT_TRUE(EndsWith("file.xml", ".xml"));
  EXPECT_FALSE(EndsWith("xml", ".xml"));
}

TEST(MetricsTest, AddAndMax) {
  Metrics m;
  m.Add("x", 2);
  m.Add("x", 3);
  EXPECT_EQ(m.Get("x"), 5);
  EXPECT_EQ(m.Get("missing"), 0);
  m.RecordMax("peak", 10);
  m.RecordMax("peak", 4);
  EXPECT_EQ(m.Get("peak"), 10);
  m.RecordMax("peak", 12);
  EXPECT_EQ(m.Get("peak"), 12);
}

TEST(MetricsTest, NullSafeHelper) {
  MetricsAdd(nullptr, "x", 1);  // must not crash
  Metrics m;
  MetricsAdd(&m, "x", 1);
  EXPECT_EQ(m.Get("x"), 1);
}

TEST(MetricsTest, ToStringSortsByName) {
  Metrics m;
  m.Add("b", 2);
  m.Add("a", 1);
  EXPECT_EQ(m.ToString(), "a=1\nb=2\n");
}

TEST(TimerTest, MeasuresElapsed) {
  Timer t;
  EXPECT_GE(t.ElapsedMicros(), 0);
  t.Restart();
  EXPECT_GE(t.ElapsedSeconds(), 0.0);
}

TEST(BudgetTest, RowLimitViolationNamesRowsAndTotals) {
  BudgetTracker budget(/*max_rows=*/10, /*max_bytes=*/0,
                       /*deadline_micros=*/0);
  EXPECT_TRUE(budget.limited());
  EXPECT_TRUE(budget.ChargeRows(10, 80));
  EXPECT_FALSE(budget.ChargeRows(5, 40));  // 15 > 10: sticky from here
  EXPECT_TRUE(budget.violated());
  Status status = budget.status();
  EXPECT_EQ(status.code(), StatusCode::kResourceExhausted);
  EXPECT_NE(status.message().find("max_rows=10"), std::string::npos)
      << status.ToString();
  EXPECT_NE(status.message().find("15 rows"), std::string::npos)
      << status.ToString();
}

TEST(BudgetTest, ByteLimitViolationNamesBytesNotRows) {
  // Regression: a max_bytes trip used to be misreported as the row
  // limit. The typed message must name the limit actually crossed.
  BudgetTracker budget(/*max_rows=*/0, /*max_bytes=*/100,
                       /*deadline_micros=*/0);
  EXPECT_FALSE(budget.ChargeRows(3, 200));
  Status status = budget.status();
  EXPECT_EQ(status.code(), StatusCode::kResourceExhausted);
  EXPECT_NE(status.message().find("max_bytes=100"), std::string::npos)
      << status.ToString();
  EXPECT_EQ(status.message().find("max_rows"), std::string::npos)
      << status.ToString();
  EXPECT_NE(status.message().find("200 bytes"), std::string::npos)
      << status.ToString();
}

TEST(BudgetTest, UnlimitedTrackerStillCountsCharges) {
  BudgetTracker budget;
  EXPECT_FALSE(budget.limited());
  EXPECT_TRUE(budget.ChargeRows(7, 56));
  EXPECT_FALSE(budget.violated());
  EXPECT_EQ(budget.rows_charged(), 7);
  EXPECT_EQ(budget.bytes_charged(), 56);
  EXPECT_TRUE(budget.status().ok());
}

TEST(BudgetTest, CancelTokenTripsViolatedAndYieldsTokenStatus) {
  CancellationToken token;
  BudgetTracker untokened(/*max_rows=*/0, /*max_bytes=*/0,
                          /*deadline_micros=*/0, /*cancel=*/nullptr);
  EXPECT_FALSE(untokened.limited());
  EXPECT_FALSE(untokened.has_cancel());
  BudgetTracker budget(/*max_rows=*/0, /*max_bytes=*/0,
                       /*deadline_micros=*/0, &token);
  EXPECT_TRUE(budget.limited());
  EXPECT_TRUE(budget.has_cancel());
  EXPECT_FALSE(budget.violated());
  token.Cancel("caller hung up");
  EXPECT_TRUE(budget.violated());
  Status status = budget.status();
  EXPECT_EQ(status.code(), StatusCode::kCancelled);
  EXPECT_NE(status.message().find("caller hung up"), std::string::npos)
      << status.ToString();
}

TEST(BudgetTest, AggregateCeilingChargesAndReleases) {
  AggregateBudget aggregate("pool", /*max_rows=*/100, /*max_bytes=*/0);
  BudgetTracker first;
  BudgetTracker second;
  first.AttachAggregate(&aggregate);
  second.AttachAggregate(&aggregate);
  EXPECT_TRUE(first.limited());
  EXPECT_TRUE(first.ChargeRows(60, 480));
  // The second query pushes the pool-wide total over the ceiling even
  // though neither query is large on its own.
  EXPECT_FALSE(second.ChargeRows(60, 480));
  Status status = second.status();
  EXPECT_EQ(status.code(), StatusCode::kResourceExhausted);
  EXPECT_NE(status.message().find("tenant pool 'pool'"), std::string::npos)
      << status.ToString();
  EXPECT_FALSE(first.violated());  // only the crossing tracker trips
  EXPECT_EQ(aggregate.inflight_rows(), 120);
  aggregate.Release(first.rows_charged(), first.bytes_charged());
  aggregate.Release(second.rows_charged(), second.bytes_charged());
  EXPECT_EQ(aggregate.inflight_rows(), 0);
  EXPECT_EQ(aggregate.inflight_bytes(), 0);
}

TEST(CancellationTokenTest, FirstCancelWinsAndIsSticky) {
  CancellationToken token;
  EXPECT_FALSE(token.cancelled());
  token.Cancel("first");
  token.Cancel("second");  // ignored: first reason is kept
  EXPECT_TRUE(token.cancelled());
  Status status = token.status();
  EXPECT_EQ(status.code(), StatusCode::kCancelled);
  EXPECT_NE(status.message().find("first"), std::string::npos);
  EXPECT_EQ(status.message().find("second"), std::string::npos);
}

TEST(FaultInjectorTest, FailAtTriggersOnNthHitAndAfter) {
  ScopedFaultInjection scoped;
  FaultInjector& faults = FaultInjector::Global();
  faults.FailAt("test.site", 3);
  EXPECT_FALSE(faults.Hit("test.site"));
  EXPECT_FALSE(faults.Hit("test.site"));
  EXPECT_TRUE(faults.Hit("test.site"));
  EXPECT_TRUE(faults.Hit("test.site"));  // and every hit after
  EXPECT_FALSE(faults.Hit("other.site"));
  EXPECT_EQ(faults.hits("test.site"), 4);
  EXPECT_EQ(faults.hits("other.site"), 1);
  faults.Disarm();
  EXPECT_FALSE(faults.Hit("test.site"));
  EXPECT_EQ(faults.hits("test.site"), 1);  // counters reset too
}

TEST(FaultInjectorTest, SeededDecisionsReplayExactly) {
  ScopedFaultInjection scoped;
  FaultInjector& faults = FaultInjector::Global();
  auto run = [&faults](uint64_t seed) {
    faults.Disarm();
    faults.SetSeed(seed, 0.3);
    std::vector<bool> decisions;
    for (int i = 0; i < 64; ++i) decisions.push_back(faults.Hit("a.site"));
    for (int i = 0; i < 64; ++i) decisions.push_back(faults.Hit("b.site"));
    return decisions;
  };
  std::vector<bool> first = run(7);
  std::vector<bool> replay = run(7);
  std::vector<bool> other = run(8);
  EXPECT_EQ(first, replay);
  EXPECT_NE(first, other);
  // p=0.3 over 128 draws: some fail, most don't.
  int fails = 0;
  for (bool b : first) fails += b ? 1 : 0;
  EXPECT_GT(fails, 0);
  EXPECT_LT(fails, 128);
}

TEST(FaultInjectorTest, HandlerObservesWithoutFailing) {
  ScopedFaultInjection scoped;
  FaultInjector& faults = FaultInjector::Global();
  std::vector<int64_t> observed;
  faults.SetHandler("watched.site",
                    [&observed](int64_t n) { observed.push_back(n); });
  EXPECT_FALSE(faults.Hit("watched.site"));
  EXPECT_FALSE(faults.Hit("watched.site"));
  EXPECT_EQ(observed, (std::vector<int64_t>{1, 2}));
}

// The one eviction rule both database caches share: evict from the
// least recently used end until the total cost fits, never cache an
// entry costlier than the whole budget, and count only budget-driven
// drops as evictions.
TEST(LruCacheTest, CostBudgetEvictsColdestAndSkipsOversizeEntries) {
  LruCache<std::string, int> cache(/*budget=*/10);
  cache.Put("a", 1, 4);
  cache.Put("b", 2, 4);
  ASSERT_NE(cache.Get("a"), nullptr);  // "b" is now the coldest
  cache.Put("c", 3, 4);                // 12 > 10: evicts "b"
  EXPECT_EQ(cache.Get("b"), nullptr);
  EXPECT_EQ(*cache.Get("a"), 1);
  EXPECT_EQ(cache.cost(), 8u);
  EXPECT_EQ(cache.evictions(), 1);

  cache.Put("big", 4, 11);  // over the whole budget: not cached
  EXPECT_EQ(cache.Get("big"), nullptr);
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.evictions(), 1);

  cache.Put("a", 5, 2);  // replaces in place of adding
  EXPECT_EQ(*cache.Get("a"), 5);
  EXPECT_EQ(cache.cost(), 6u);

  EXPECT_EQ(cache.EraseIf([](const std::string& key, int) {
              return key == "c";
            }),
            1u);
  EXPECT_EQ(cache.evictions(), 1);
  cache.SetBudget(0);  // capacity 0 holds nothing
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.evictions(), 2);
  cache.Put("d", 6, 1);
  EXPECT_EQ(cache.size(), 0u);
}

}  // namespace
}  // namespace xjoin
