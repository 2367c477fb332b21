// Deterministic fault injection for robustness tests. The engines mark
// named sites with XJOIN_FAULT("site"); in normal builds the macro
// compiles to a constant-false no-op (zero code, zero data, zero
// atomics), so release binaries are byte-identical with or without the
// sites. Configuring CMake with -DXJOIN_FAULTS=ON defines
// XJOIN_FAULTS_ENABLED and routes every site through the process-wide
// FaultInjector, which tests program to:
//   * fail the Nth hit of one site       (FailAt)      — deterministic
//     reproduction of "the 3rd shard dispatch fails";
//   * fail sites pseudo-randomly         (SetSeed)     — seeded chaos
//     sweeps; the decision hashes (seed, site, hit#) so a seed replays
//     the exact same failures;
//   * observe hits without failing them  (SetHandler)  — e.g. cancel a
//     token the moment a query's expansion loop reaches a tick site.
//
// Fault-site catalog (kept in sync with docs/ARCHITECTURE.md):
//   gj.shard_dispatch     before key ranges go to more than one join
//                         worker (a hit fails the query kInternal)
//   gj.tick               observer-only: each budget/cancel poll in the
//                         expansion loop (never fails; handler hook)
//   trie.build            before a relation trie build on cache miss
//                         (a hit fails the build kInternal)
//   trie.compact          after a relation delta rebuilds its cached
//                         tries, before it publishes (a hit fails the
//                         update, old version must stay fully intact)
//   admission.queue_full  evaluated at tenant admission (a hit makes
//                         the pool report queue-full regardless of
//                         actual depth)
//   gj.morsel             per-range morsel hand-off to a join worker,
//                         with more than one (a hit drops that range's
//                         work; the query fails kInternal)
//   gj.result_merge       before the join workers' parts merge into the
//                         final relation (a hit fails the query kInternal)
//   net.accept            before the server accepts a pending
//                         connection (a hit drops it on the floor)
//   net.read              per read() in the server's frame decoder (a
//                         hit closes the connection mid-frame)
//   net.write             per write() of a response (a hit closes the
//                         connection mid-response)
//   net.drop_response     after a request executes but before its
//                         response frame is written (a hit closes the
//                         connection, simulating a lost response)
#ifndef XJOIN_COMMON_FAULT_H_
#define XJOIN_COMMON_FAULT_H_

#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <string>

namespace xjoin {

/// Process-wide registry of armed faults. All methods are thread-safe.
/// Tests arm faults, run the scenario, then Disarm() — typically via a
/// small RAII guard so a failing assertion cannot leak armed faults
/// into the next test.
class FaultInjector {
 public:
  static FaultInjector& Global();

  /// Arms `site` to fail on its `nth` hit (1-based) and every hit after.
  /// Replaces any previous programming of that site.
  void FailAt(const std::string& site, int64_t nth);

  /// Arms every site to fail pseudo-randomly with probability `p`. The
  /// decision is a pure function of (seed, site, hit#): re-running with
  /// the same seed replays the identical failure sequence.
  void SetSeed(uint64_t seed, double p);

  /// Installs an observer invoked (outside the injector lock) on every
  /// hit of `site`, receiving the 1-based hit count. The handler never
  /// makes the site fail; combine with FailAt/SetSeed if needed.
  void SetHandler(const std::string& site,
                  std::function<void(int64_t)> handler);

  /// Clears all programming and counters.
  void Disarm();

  /// Total times `site` has been reached since the last Disarm().
  int64_t hits(const std::string& site);

  /// Called by the XJOIN_FAULT macro: records a hit of `site`, invokes
  /// its handler if any, and returns whether the site should fail.
  bool Hit(const std::string& site);

 private:
  FaultInjector() = default;

  std::mutex mu_;
  std::map<std::string, int64_t> hit_counts_;
  std::map<std::string, int64_t> fail_at_;  // site -> nth (1-based)
  std::map<std::string, std::function<void(int64_t)>> handlers_;
  bool seeded_ = false;
  uint64_t seed_ = 0;
  double seed_p_ = 0.0;
};

/// RAII disarm: constructs clean, destructs clean. Put one at the top
/// of every fault test so armed faults never outlive it.
class ScopedFaultInjection {
 public:
  ScopedFaultInjection() { FaultInjector::Global().Disarm(); }
  ~ScopedFaultInjection() { FaultInjector::Global().Disarm(); }
  ScopedFaultInjection(const ScopedFaultInjection&) = delete;
  ScopedFaultInjection& operator=(const ScopedFaultInjection&) = delete;
};

}  // namespace xjoin

#ifdef XJOIN_FAULTS_ENABLED
/// True when the named site should fail this time through.
#define XJOIN_FAULT(site) (::xjoin::FaultInjector::Global().Hit(site))
#else
/// Fault injection compiled out: constant false, no side effects.
#define XJOIN_FAULT(site) (false)
#endif

#endif  // XJOIN_COMMON_FAULT_H_
