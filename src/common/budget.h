// Per-query admission budgets for the serving core: row, byte, and
// wall-clock ceilings a caller attaches through QueryOptions. The
// engines charge materialized work against a shared BudgetTracker and
// abort every shard as soon as any ceiling is crossed; the query then
// fails with a typed Status (kResourceExhausted for rows/bytes,
// kDeadlineExceeded for time) and NO partial result is returned —
// budgets are guardrails against runaway queries, not LIMIT clauses.
//
// The tracker is also the cancellation rendezvous: the query's one
// CancellationToken (common/cancel.h, nullable) is a constructor
// argument, and the violated() poll every shard already performs each
// binding additionally observes it, turning a Cancel() from any thread
// into a typed kCancelled failure within one budget-check interval.
// Per-tenant aggregate in-flight ceilings (AggregateBudget, fed by
// TenantPool) layer on the same charge path.
//
// Semantics (also documented on QueryOptions):
//   max_rows / max_bytes  meter rows materialized at any stage — the
//       expansion output counts, not just the final projection — so a
//       query whose intermediate result explodes is stopped even if its
//       final answer would have been small. This is the resource guard.
//   deadline              an elapsed-wall-clock ceiling, checked at
//       query admission and then periodically (every few thousand
//       bindings) inside the expansion loop. This is the work guard.
#ifndef XJOIN_COMMON_BUDGET_H_
#define XJOIN_COMMON_BUDGET_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>

#include "common/cancel.h"
#include "common/status.h"

namespace xjoin {

/// Aggregate in-flight row/byte ceilings shared by every concurrently
/// running query of one tenant pool. Queries charge through their own
/// BudgetTracker (AttachAggregate below) and release their charges when
/// they finish, so the ceilings bound the *sum* of live intermediate
/// results, not any single query. Thread-safe; 0 means unlimited.
class AggregateBudget {
 public:
  AggregateBudget(std::string label, int64_t max_rows, int64_t max_bytes)
      : label_(std::move(label)), max_rows_(max_rows), max_bytes_(max_bytes) {}

  enum Crossed { kNone = 0, kRows = 1, kBytes = 2 };

  /// Charges in-flight work; reports the first ceiling crossed (sticky
  /// decisions are the caller's — the charge itself always lands, and
  /// the matching Release keeps the accounting balanced).
  Crossed Charge(int64_t rows, int64_t bytes) {
    int64_t total_rows = rows_.fetch_add(rows, std::memory_order_relaxed) +
                         rows;
    int64_t total_bytes = bytes_.fetch_add(bytes, std::memory_order_relaxed) +
                          bytes;
    if (max_rows_ > 0 && total_rows > max_rows_) return kRows;
    if (max_bytes_ > 0 && total_bytes > max_bytes_) return kBytes;
    return kNone;
  }

  /// Returns a finished query's charges to the pool.
  void Release(int64_t rows, int64_t bytes) {
    rows_.fetch_sub(rows, std::memory_order_relaxed);
    bytes_.fetch_sub(bytes, std::memory_order_relaxed);
  }

  int64_t inflight_rows() const {
    return rows_.load(std::memory_order_relaxed);
  }
  int64_t inflight_bytes() const {
    return bytes_.load(std::memory_order_relaxed);
  }
  int64_t max_rows() const { return max_rows_; }
  int64_t max_bytes() const { return max_bytes_; }
  /// Diagnostic name (the tenant pool), used in violation messages.
  const std::string& label() const { return label_; }

 private:
  const std::string label_;
  const int64_t max_rows_;
  const int64_t max_bytes_;
  std::atomic<int64_t> rows_{0};
  std::atomic<int64_t> bytes_{0};
};

/// Thread-safe budget accounting shared by every shard of one query.
/// Default-constructed trackers have no limits and every charge is a
/// cheap relaxed no-op check.
class BudgetTracker {
 public:
  BudgetTracker() = default;

  /// Installs limits; 0 means unlimited for each. `deadline_micros` is
  /// relative to now. `cancel` (nullable, caller-owned, must outlive the
  /// tracker) is the one token this query observes.
  BudgetTracker(int64_t max_rows, int64_t max_bytes, int64_t deadline_micros,
                const CancellationToken* cancel = nullptr)
      : max_rows_(max_rows), max_bytes_(max_bytes), cancel_(cancel) {
    if (deadline_micros > 0) {
      has_deadline_ = true;
      deadline_ = std::chrono::steady_clock::now() +
                  std::chrono::microseconds(deadline_micros);
    }
  }

  /// Whether the engines must charge work through this tracker: any
  /// finite limit, a cancel token, or a tenant aggregate.
  bool limited() const {
    return max_rows_ > 0 || max_bytes_ > 0 || has_deadline_ ||
           cancel_ != nullptr || aggregate_ != nullptr;
  }

  /// Whether a cancel token is attached (the engines count their
  /// cancellation polls only when one is).
  bool has_cancel() const { return cancel_ != nullptr; }

  /// Attaches the tenant pool's aggregate in-flight ceilings; every
  /// ChargeRows also charges the aggregate. NOT thread-safe: call
  /// during query setup. The caller owns the release (the admission
  /// slot returns rows_charged()/bytes_charged() when the query ends).
  void AttachAggregate(AggregateBudget* aggregate) {
    aggregate_ = aggregate;
  }

  /// Charges `rows` newly materialized rows of `bytes` total size.
  /// Returns false once any budget is exceeded (sticky).
  bool ChargeRows(int64_t rows, int64_t bytes) {
    int64_t total_rows =
        rows_.fetch_add(rows, std::memory_order_relaxed) + rows;
    int64_t total_bytes =
        bytes_.fetch_add(bytes, std::memory_order_relaxed) + bytes;
    if (max_rows_ > 0 && total_rows > max_rows_) {
      MarkViolation(kRowsExceeded);
    }
    if (max_bytes_ > 0 && total_bytes > max_bytes_) {
      MarkViolation(kBytesExceeded);
    }
    if (aggregate_ != nullptr) {
      switch (aggregate_->Charge(rows, bytes)) {
        case AggregateBudget::kRows:
          MarkViolation(kTenantRowsExceeded);
          break;
        case AggregateBudget::kBytes:
          MarkViolation(kTenantBytesExceeded);
          break;
        case AggregateBudget::kNone:
          break;
      }
    }
    return !violated();
  }

  /// Samples the clock against the deadline. Returns false once
  /// exceeded (sticky). Call sparingly (it reads steady_clock).
  bool CheckDeadline() {
    if (has_deadline_ && std::chrono::steady_clock::now() >= deadline_) {
      MarkViolation(kDeadlineExceeded);
    }
    return !violated();
  }

  /// Whether any budget has been exceeded or the token was cancelled.
  /// Relaxed loads — shards poll this every binding to abort early; a
  /// seen cancellation is latched as a sticky violation.
  bool violated() {
    if (violation_.load(std::memory_order_relaxed) != kNone) return true;
    if (cancel_ != nullptr && cancel_->cancelled()) {
      MarkViolation(kCancelled);
      return true;
    }
    return false;
  }

  /// OK, or the typed failure naming the first limit actually crossed
  /// plus the totals charged when it tripped.
  Status status() const {
    switch (violation_.load(std::memory_order_relaxed)) {
      case kRowsExceeded:
        return Status::ResourceExhausted(
            "query exceeded max_rows=" + std::to_string(max_rows_) +
            " (charged " + ChargedTotals() +
            "); partial results are discarded");
      case kBytesExceeded:
        return Status::ResourceExhausted(
            "query exceeded max_bytes=" + std::to_string(max_bytes_) +
            " (charged " + ChargedTotals() +
            "); partial results are discarded");
      case kDeadlineExceeded:
        return Status::DeadlineExceeded(
            "query exceeded its deadline; partial results are discarded");
      case kCancelled:
        return cancel_->status();
      case kTenantRowsExceeded:
        return Status::ResourceExhausted(
            "tenant pool '" + AggregateLabel() +
            "' exceeded its aggregate in-flight row ceiling (" +
            std::to_string(aggregate_ != nullptr ? aggregate_->max_rows()
                                                 : 0) +
            " rows across concurrent queries); partial results are "
            "discarded — retry when the pool drains");
      case kTenantBytesExceeded:
        return Status::ResourceExhausted(
            "tenant pool '" + AggregateLabel() +
            "' exceeded its aggregate in-flight byte ceiling (" +
            std::to_string(aggregate_ != nullptr ? aggregate_->max_bytes()
                                                 : 0) +
            " bytes across concurrent queries); partial results are "
            "discarded — retry when the pool drains");
      default:
        return Status::OK();
    }
  }

  int64_t rows_charged() const {
    return rows_.load(std::memory_order_relaxed);
  }
  int64_t bytes_charged() const {
    return bytes_.load(std::memory_order_relaxed);
  }

 private:
  enum Violation : int {
    kNone = 0,
    kRowsExceeded = 1,
    kBytesExceeded = 2,
    kDeadlineExceeded = 3,
    kCancelled = 4,
    kTenantRowsExceeded = 5,
    kTenantBytesExceeded = 6,
  };

  void MarkViolation(Violation v) {
    int expected = kNone;
    violation_.compare_exchange_strong(expected, v,
                                       std::memory_order_relaxed);
  }

  std::string ChargedTotals() const {
    return std::to_string(rows_charged()) + " rows, " +
           std::to_string(bytes_charged()) + " bytes";
  }

  std::string AggregateLabel() const {
    return aggregate_ != nullptr ? aggregate_->label() : std::string("?");
  }

  int64_t max_rows_ = 0;
  int64_t max_bytes_ = 0;
  bool has_deadline_ = false;
  std::chrono::steady_clock::time_point deadline_{};
  const CancellationToken* cancel_ = nullptr;
  // Set during query setup (before any shard thread launches — the
  // executor hand-off provides the happens-before), only read afterwards.
  AggregateBudget* aggregate_ = nullptr;
  std::atomic<int64_t> rows_{0};
  std::atomic<int64_t> bytes_{0};
  std::atomic<int> violation_{kNone};
};

}  // namespace xjoin

#endif  // XJOIN_COMMON_BUDGET_H_
