#include "common/executor.h"

#include <algorithm>

namespace xjoin {

int ParallelWorkerCount(int max_parallelism, size_t n, size_t grain) {
  if (max_parallelism <= 1 || n <= 1) return 1;
  if (grain == 0) grain = 1;
  size_t blocks = (n + grain - 1) / grain;
  size_t workers =
      std::min<size_t>(static_cast<size_t>(max_parallelism), blocks);
  return static_cast<int>(std::max<size_t>(workers, 1));
}

Executor::Executor() {
  // Floor of 3: on 1-2 core dev machines a hardware-sized pool would
  // quietly serialize every parallel path (and their tests).
  const int num_threads =
      std::max(3, static_cast<int>(std::thread::hardware_concurrency()));
  threads_.reserve(static_cast<size_t>(num_threads));
  for (int t = 0; t < num_threads; ++t) {
    threads_.emplace_back([this] { WorkerLoop(); });
  }
}

Executor::~Executor() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& t : threads_) t.join();
}

void Executor::RunJob(Job* job) {
  int slot = job->next_slot.fetch_add(1, std::memory_order_relaxed);
  if (slot >= job->max_slots) return;
  for (;;) {
    size_t begin = job->cursor.fetch_add(job->grain, std::memory_order_relaxed);
    if (begin >= job->n) return;
    size_t end = std::min(begin + job->grain, job->n);
    for (size_t i = begin; i < end; ++i) (*job->fn)(slot, i);
  }
}

std::shared_ptr<Executor::Job> Executor::PickRunnableJobLocked() {
  for (size_t k = 0; k < jobs_.size(); ++k) {
    // Round-robin: move the head job to the back so one long job does
    // not monopolize every worker while others queue behind it.
    std::shared_ptr<Job> job = jobs_.front();
    jobs_.pop_front();
    bool exhausted = job->cursor.load(std::memory_order_relaxed) >= job->n;
    bool saturated = job->next_slot.load(std::memory_order_relaxed) >=
                     job->max_slots;
    if (exhausted) continue;  // drop it; the submitter keeps its ref
    jobs_.push_back(job);
    if (!saturated) return job;
  }
  return nullptr;
}

void Executor::WorkerLoop() {
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    std::shared_ptr<Job> job;
    work_cv_.wait(lock, [&] {
      if (stop_) return true;
      job = PickRunnableJobLocked();
      return job != nullptr;
    });
    if (stop_) return;
    ++job->active;
    lock.unlock();
    RunJob(job.get());
    lock.lock();
    if (--job->active == 0) done_cv_.notify_all();
  }
}

void Executor::ParallelForWorker(int max_parallelism, size_t n, size_t grain,
                                 const std::function<void(int, size_t)>& fn) {
  if (n == 0) return;
  if (grain == 0) grain = 1;
  const int workers = ParallelWorkerCount(max_parallelism, n, grain);
  if (workers <= 1 || threads_.empty()) {
    for (size_t i = 0; i < n; ++i) fn(0, i);
    return;
  }

  auto job = std::make_shared<Job>();
  job->n = n;
  job->grain = grain;
  job->fn = &fn;
  job->max_slots = workers;
  {
    std::lock_guard<std::mutex> lock(mu_);
    jobs_.push_back(job);
  }
  work_cv_.notify_all();

  // Help-first: the submitter drains its own morsels alongside any
  // workers that picked the job up, then waits only for participants
  // already inside their final morsel.
  RunJob(job.get());

  std::unique_lock<std::mutex> lock(mu_);
  for (auto it = jobs_.begin(); it != jobs_.end(); ++it) {
    if (*it == job) {
      jobs_.erase(it);
      break;
    }
  }
  done_cv_.wait(lock, [&] { return job->active == 0; });
}

void Executor::ParallelFor(int max_parallelism, size_t n, size_t grain,
                           const std::function<void(size_t)>& fn) {
  ParallelForWorker(max_parallelism, n, grain,
                    [&fn](int, size_t i) { fn(i); });
}

Executor* Executor::Default() {
  static Executor* pool = new Executor();  // leaked: outlives exit-time users
  return pool;
}

}  // namespace xjoin
