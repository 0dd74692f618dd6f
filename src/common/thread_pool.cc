#include "common/thread_pool.h"

#include <algorithm>
#include <sstream>
#include <utility>

#include "common/error.h"

namespace vrddram {

namespace {

/// Set while a thread runs a pool's WorkerLoop; lets a nested
/// ParallelFor on the same pool fall back to inline execution.
thread_local const ThreadPool* t_current_pool = nullptr;

}  // namespace

std::size_t ThreadPool::DefaultWorkerCount() {
  return std::max<std::size_t>(1, std::thread::hardware_concurrency());
}

std::size_t ThreadPool::WorkersFor(std::size_t threads, std::size_t tasks) {
  return std::min(threads == 0 ? DefaultWorkerCount() : threads, tasks);
}

ThreadPool::ThreadPool(std::size_t workers) {
  if (workers == 0) {
    workers = DefaultWorkerCount();
  }
  try {
    workers_.reserve(workers);
    for (std::size_t i = 0; i < workers; ++i) {
      workers_.emplace_back([this] { WorkerLoop(); });
    }
  } catch (const std::exception& e) {
    // The destructor does not run for a half-built pool: stop and join
    // the workers that did start before reporting the failure.
    const std::size_t started = workers_.size();
    {
      std::lock_guard<std::mutex> lock(state_mutex_);
      stopping_ = true;
    }
    work_cv_.notify_all();
    workers_.clear();
    std::ostringstream msg;
    msg << "cannot start a thread pool of " << workers
        << " worker threads (started " << started << "): " << e.what();
    throw FatalError(msg.str());
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(state_mutex_);
    stopping_ = true;
  }
  work_cv_.notify_all();
  // workers_ (declared last) joins first among the members.
}

bool ThreadPool::OnWorkerThread() const { return t_current_pool == this; }

void ThreadPool::ParallelFor(
    std::size_t n, const std::function<void(std::size_t)>& fn) {
  if (n == 0) {
    return;
  }
  if (OnWorkerThread()) {
    // Nested use from a task: the job lock is (or may be) held by the
    // thread that submitted the outer job, and blocking this worker on
    // it could deadlock the pool. Inline execution preserves results.
    for (std::size_t i = 0; i < n; ++i) {
      fn(i);
    }
    return;
  }

  std::lock_guard<std::mutex> job_lock(job_mutex_);
  std::unique_lock<std::mutex> lock(state_mutex_);
  // ~8 ranges per worker keeps cursor traffic low while still letting
  // fast workers pick up the slack; campaign-style jobs (n < workers)
  // get one index per range.
  job_ = Job{&fn, n, std::max<std::size_t>(1, n / (worker_count() * 8))};
  cursor_.store(0, std::memory_order_relaxed);
  abort_.store(false, std::memory_order_relaxed);
  error_ = nullptr;
  error_index_ = ~std::size_t{0};
  ++generation_;
  work_cv_.notify_all();

  // Every claimed range belongs to a worker that is still active, so
  // an exhausted (or aborted) cursor with no active worker means done.
  done_cv_.wait(lock, [&] {
    return active_ == 0 &&
           (abort_.load(std::memory_order_relaxed) ||
            cursor_.load(std::memory_order_relaxed) >= n);
  });
  job_ = Job{};
  const std::exception_ptr error = std::exchange(error_, nullptr);
  lock.unlock();
  if (error != nullptr) {
    std::rethrow_exception(error);
  }
}

void ThreadPool::RunRanges(const Job& job) {
  while (!abort_.load(std::memory_order_relaxed)) {
    const std::size_t begin =
        cursor_.fetch_add(job.grain, std::memory_order_relaxed);
    if (begin >= job.n) {
      return;
    }
    const std::size_t end = std::min(job.n, begin + job.grain);
    for (std::size_t i = begin; i < end; ++i) {
      if (abort_.load(std::memory_order_relaxed)) {
        return;
      }
      try {
        (*job.fn)(i);
      } catch (...) {
        // Keep the exception with the smallest task index, so the
        // caller sees a deterministic winner when several tasks throw
        // concurrently rather than whichever thread raced in first.
        std::lock_guard<std::mutex> lock(state_mutex_);
        if (error_ == nullptr || i < error_index_) {
          error_ = std::current_exception();
          error_index_ = i;
        }
        abort_.store(true, std::memory_order_relaxed);
        return;
      }
    }
  }
}

void ThreadPool::WorkerLoop() {
  t_current_pool = this;
  std::uint64_t seen = 0;
  std::unique_lock<std::mutex> lock(state_mutex_);
  for (;;) {
    work_cv_.wait(lock, [&] { return stopping_ || generation_ != seen; });
    if (stopping_) {
      return;
    }
    seen = generation_;
    if (job_.fn == nullptr) {
      continue;  // the job finished before this worker woke
    }
    const Job job = job_;
    ++active_;
    lock.unlock();
    RunRanges(job);
    lock.lock();
    if (--active_ == 0) {
      done_cv_.notify_all();
    }
  }
}

void ParallelFor(ThreadPool* pool, std::size_t n,
                 const std::function<void(std::size_t)>& fn) {
  if (pool != nullptr && pool->worker_count() > 1 && n > 1) {
    pool->ParallelFor(n, fn);
    return;
  }
  for (std::size_t i = 0; i < n; ++i) {
    fn(i);
  }
}

void ParallelForThreads(std::size_t threads, std::size_t n,
                        const std::function<void(std::size_t)>& fn) {
  const std::size_t workers = ThreadPool::WorkersFor(threads, n);
  if (workers > 1) {
    ThreadPool pool(workers);
    pool.ParallelFor(n, fn);
    return;
  }
  for (std::size_t i = 0; i < n; ++i) {
    fn(i);
  }
}

}  // namespace vrddram
