/**
 * @file
 * Thread pool for the embarrassingly-parallel loops of the suite. Its
 * production users each run one job through ParallelForThreads (a
 * transient pool capped at the job's task count):
 *  - core::RunCampaign: one task per (device, temperature) shard;
 *  - core::AnalyzeRows: one task per (row, N) min-RDT pair, on its
 *    Monte Carlo opt-in (`iterations > 0`);
 *  - core::RunGuardbandStudy: one task per device;
 *  - the driver experiments: fig14's SimulateMix calls, the per-device
 *    single-row series of fig01/fig03/fig04/fig05
 *    (bench::MapSingleRowSeries) and fig07's per-record analysis.
 *
 * Design constraints, in order:
 *  1. Determinism: the pool never owns randomness or ordering. Callers
 *     shard work into independent index-addressed tasks whose results
 *     land in preallocated slots, so output is bit-identical for any
 *     worker count (including the inline serial fallback).
 *  2. One job at a time, one shared cursor: workers claim contiguous
 *     index ranges from a single atomic cursor until it passes the
 *     end. With a single job in flight this balances load as well as
 *     per-worker queues with stealing would, so there are none.
 *  3. Exceptions propagate deterministically: when tasks throw, the
 *     exception with the smallest index wins — not whichever thread
 *     lost the race — and is rethrown from ParallelFor on the calling
 *     thread; no new task starts after a throw (tasks that never
 *     started do not get to compete, so the winner is the
 *     canonical-first among the tasks that actually threw).
 */
#ifndef VRDDRAM_COMMON_THREAD_POOL_H
#define VRDDRAM_COMMON_THREAD_POOL_H

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace vrddram {

class ThreadPool {
 public:
  /// `workers` = 0 selects DefaultWorkerCount(). Throws FatalError,
  /// naming `workers`, when the threads cannot all be started (the
  /// ones that did start are joined first).
  explicit ThreadPool(std::size_t workers = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t worker_count() const { return workers_.size(); }

  /**
   * Run fn(i) for every i in [0, n) across the workers and block until
   * all complete. Workers claim ranges of max(1, n / (workers * 8))
   * consecutive indices from a shared cursor. Rethrows the thrown task
   * exception with the smallest index. Concurrent callers run one
   * after another. A call from one of this pool's own worker threads
   * runs inline (serially) instead of deadlocking on the single-job
   * lock.
   */
  void ParallelFor(std::size_t n,
                   const std::function<void(std::size_t)>& fn);

  /// True when the calling thread is one of this pool's workers.
  bool OnWorkerThread() const;

  /// max(1, std::thread::hardware_concurrency()).
  static std::size_t DefaultWorkerCount();

  /// Workers worth starting for a job of `tasks` tasks when `threads`
  /// are requested (0 = DefaultWorkerCount()): never more than the
  /// tasks. A result of at most 1 means "run inline, no pool".
  static std::size_t WorkersFor(std::size_t threads, std::size_t tasks);

 private:
  /// The published job; `fn` is null between jobs.
  struct Job {
    const std::function<void(std::size_t)>* fn = nullptr;
    std::size_t n = 0;
    std::size_t grain = 1;
  };

  void WorkerLoop();
  /// Claim and run ranges of `job` until the cursor passes its end or
  /// a task throws.
  void RunRanges(const Job& job);

  /// Serializes ParallelFor callers: one job at a time.
  std::mutex job_mutex_;

  std::mutex state_mutex_;
  std::condition_variable work_cv_;  ///< workers wait for a new job
  std::condition_variable done_cv_;  ///< caller waits for completion
  bool stopping_ = false;
  Job job_;
  /// Bumped per published job, so a worker joins each job at most once.
  std::uint64_t generation_ = 0;
  /// Next unclaimed index of the current job.
  std::atomic<std::size_t> cursor_{0};
  /// Workers inside the current job (completion: zero once the cursor
  /// is exhausted or a task threw).
  std::size_t active_ = 0;
  std::atomic<bool> abort_{false};
  std::exception_ptr error_;
  /// Task index that produced error_; the smallest index wins so the
  /// rethrown exception is deterministic under concurrent failures.
  std::size_t error_index_ = 0;

  /// Declared last so the threads join before the state they wait on
  /// is destroyed.
  std::vector<std::jthread> workers_;
};

/**
 * Convenience fan-out used by the parallel hot loops: runs fn(i) for i
 * in [0, n) on `pool` when it is non-null and has more than one
 * worker, inline on the calling thread otherwise. Either way every
 * index runs exactly once, so results are identical.
 */
void ParallelFor(ThreadPool* pool, std::size_t n,
                 const std::function<void(std::size_t)>& fn);

/**
 * Runs fn(i) for i in [0, n) on a pool of
 * ThreadPool::WorkersFor(threads, n) workers that lives for this call
 * only, or inline on the calling thread when that is at most 1.
 * `threads` = 0 selects ThreadPool::DefaultWorkerCount(). Every index
 * runs exactly once, so results are the same for every `threads`.
 * Throws what ThreadPool's constructor and ParallelFor throw.
 */
void ParallelForThreads(std::size_t threads, std::size_t n,
                        const std::function<void(std::size_t)>& fn);

}  // namespace vrddram

#endif  // VRDDRAM_COMMON_THREAD_POOL_H
