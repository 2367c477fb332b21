// The shared morsel-driven executor pool: one set of long-lived worker
// threads serving every in-flight query, instead of each parallel loop
// spawning (and joining) its own std::threads. Callers submit an
// index space [0, n) cut into contiguous morsels of `grain` indices;
// the submitting thread always participates, and idle pool workers
// dynamically steal morsels off the job's atomic cursor until the space
// is drained. With N concurrent submitters the pool's workers spread
// across the active jobs, so N in-flight queries share the machine's
// cores rather than oversubscribing them N-fold.
//
// Scheduling is help-first and therefore deadlock-free: a submitter
// never blocks on anything another submitter holds — it drains its own
// morsels, and only waits (at the very end) for helpers that are
// already inside their final morsel. Nested submissions from inside a
// pool worker degrade gracefully to the same protocol.
//
// Determinism contract: which thread runs which morsel is unspecified,
// but every participant claims a distinct worker slot in
// [0, ParallelWorkerCount(max_parallelism, n, grain)), so per-slot
// scratch state (Metrics bags, shard outputs) never races and merges
// exactly.
#ifndef XJOIN_COMMON_EXECUTOR_H_
#define XJOIN_COMMON_EXECUTOR_H_

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace xjoin {

/// The number of participant slots a ParallelFor request can use:
/// min(max_parallelism, blocks of `grain` covering n), at least 1.
/// Callers size per-slot scratch state by this count.
int ParallelWorkerCount(int max_parallelism, size_t n, size_t grain);

/// A fixed pool of worker threads draining morsel jobs. Thread-safe:
/// any number of threads may submit concurrently; jobs are served
/// round-robin so no query starves another.
class Executor {
 public:
  /// Creates a pool of std::thread::hardware_concurrency() workers,
  /// floored at 3 so the parallel paths stay genuinely concurrent even
  /// on tiny machines (a pool of 3 workers + the submitting thread
  /// covers num_threads=4 tests).
  Executor();
  ~Executor();

  Executor(const Executor&) = delete;
  Executor& operator=(const Executor&) = delete;

  /// Runs `fn(i)` for every i in [0, n). At most `max_parallelism`
  /// participants (the calling thread + stolen pool workers) run
  /// concurrently; work is handed out in contiguous morsels of `grain`
  /// indices via an atomic cursor. Degenerates to a plain inline loop
  /// when max_parallelism <= 1 or the space fits one morsel. Blocks
  /// until every index has run. `fn` must not throw.
  void ParallelFor(int max_parallelism, size_t n, size_t grain,
                   const std::function<void(size_t)>& fn);

  /// Like ParallelFor, but `fn` also receives the participant's slot
  /// index in [0, ParallelWorkerCount(max_parallelism, n, grain)) —
  /// distinct per concurrent participant, so per-slot scratch needs no
  /// synchronization.
  void ParallelForWorker(int max_parallelism, size_t n, size_t grain,
                         const std::function<void(int, size_t)>& fn);

  /// The process-wide shared pool (created on first use). Trie builds,
  /// the sharded join and XJoin's validation all run here, which is
  /// what makes concurrent queries share one set of threads.
  static Executor* Default();

 private:
  struct Job {
    std::atomic<size_t> cursor{0};  // next unclaimed index
    size_t n = 0;
    size_t grain = 1;
    const std::function<void(int, size_t)>* fn = nullptr;
    std::atomic<int> next_slot{0};  // participant slot allocator
    int max_slots = 1;
    int active = 0;  // participants inside fn (guarded by mu_)
  };

  // Claims a slot and drains morsels until the cursor passes n; returns
  // at once if the job was already saturated (no slot left).
  static void RunJob(Job* job);

  void WorkerLoop();
  // A job with an unclaimed slot and unclaimed work, or null.
  std::shared_ptr<Job> PickRunnableJobLocked();

  mutable std::mutex mu_;
  std::condition_variable work_cv_;  // workers: new job / stop
  std::condition_variable done_cv_;  // submitters: job drained
  std::deque<std::shared_ptr<Job>> jobs_;
  bool stop_ = false;
  std::vector<std::thread> threads_;
};

}  // namespace xjoin

#endif  // XJOIN_COMMON_EXECUTOR_H_
