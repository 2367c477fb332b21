// Cooperative cancellation for the serving core. A CancellationToken is
// a shared atomic flag plus a reason string: one thread calls Cancel(),
// and every query whose QueryOptions::cancel points at the token polls
// cancelled() at the existing budget-check cadence — expansion
// bindings, deepest-level kernel blocks, final-validation rows, trie
// builds on cache miss, and tenant admission waits. A cancelled query
// unwinds promptly (within one budget-check interval per shard),
// discards its partial rows, and fails with a typed
// StatusCode::kCancelled. To cancel a group of calls (a session's, a
// statement's), pass the same token in each call's options.
//
// The token reaches the engines through the query's BudgetTracker
// (common/budget.h): BudgetTracker::violated() — which every shard
// already polls each binding — also polls the token, so cancellation
// costs nothing on queries that carry no token and one relaxed load
// otherwise.
#ifndef XJOIN_COMMON_CANCEL_H_
#define XJOIN_COMMON_CANCEL_H_

#include <atomic>
#include <mutex>
#include <string>
#include <utility>

#include "common/status.h"

namespace xjoin {

/// A shared cancel flag. Thread-safe: any thread may Cancel() while
/// others poll cancelled(). Cancellation is sticky and first-call-wins
/// (the first reason is kept); it is never reset — cancel a *token* to
/// kill the queries observing it, then use a fresh token.
class CancellationToken {
 public:
  CancellationToken() = default;
  CancellationToken(const CancellationToken&) = delete;
  CancellationToken& operator=(const CancellationToken&) = delete;

  /// Requests cancellation. The reason (optional) lands in the typed
  /// kCancelled Status every observing query fails with.
  void Cancel(std::string reason = std::string()) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (cancelled_.load(std::memory_order_relaxed)) return;  // first wins
      reason_ = std::move(reason);
    }
    // Release pairs with the acquire in status(): a poller that sees the
    // flag reads the reason written above.
    cancelled_.store(true, std::memory_order_release);
  }

  /// Whether cancellation has been requested. Relaxed load — engine
  /// loops poll this every binding.
  bool cancelled() const {
    return cancelled_.load(std::memory_order_relaxed);
  }

  /// OK while live; the typed kCancelled Status (carrying the reason)
  /// once cancelled.
  Status status() const {
    if (!cancelled_.load(std::memory_order_acquire)) return Status::OK();
    std::lock_guard<std::mutex> lock(mu_);
    std::string msg = "query cancelled";
    if (!reason_.empty()) msg += ": " + reason_;
    msg += "; partial results are discarded";
    return Status::Cancelled(std::move(msg));
  }

 private:
  std::atomic<bool> cancelled_{false};
  mutable std::mutex mu_;
  std::string reason_;  // guarded by mu_, written once before the flag
};

}  // namespace xjoin

#endif  // XJOIN_COMMON_CANCEL_H_
