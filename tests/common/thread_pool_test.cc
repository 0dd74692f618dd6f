#include "common/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <limits>
#include <numeric>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/error.h"

namespace vrddram {
namespace {

TEST(ThreadPoolTest, EmptyRangeRunsNothing) {
  ThreadPool pool(4);
  std::atomic<int> calls{0};
  pool.ParallelFor(0, [&](std::size_t) { calls.fetch_add(1); });
  EXPECT_EQ(calls.load(), 0);
}

TEST(ThreadPoolTest, EveryIndexRunsExactlyOnce) {
  ThreadPool pool(4);
  constexpr std::size_t kN = 10000;
  std::vector<std::atomic<int>> hits(kN);
  pool.ParallelFor(kN, [&](std::size_t i) { hits[i].fetch_add(1); });
  for (std::size_t i = 0; i < kN; ++i) {
    ASSERT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ThreadPoolTest, ResultsLandInIndexedSlots) {
  ThreadPool pool(3);
  std::vector<std::size_t> out(513, 0);
  pool.ParallelFor(out.size(), [&](std::size_t i) { out[i] = i * i; });
  for (std::size_t i = 0; i < out.size(); ++i) {
    ASSERT_EQ(out[i], i * i);
  }
}

TEST(ThreadPoolTest, OversubscriptionCompletes) {
  // Far more workers than cores (and than chunks): everything still
  // runs exactly once and the pool drains cleanly.
  ThreadPool pool(16);
  std::atomic<std::uint64_t> sum{0};
  constexpr std::size_t kN = 1000;
  pool.ParallelFor(kN, [&](std::size_t i) {
    sum.fetch_add(i, std::memory_order_relaxed);
  });
  EXPECT_EQ(sum.load(), kN * (kN - 1) / 2);
}

TEST(ThreadPoolTest, ReusableAcrossJobs) {
  ThreadPool pool(2);
  for (int round = 0; round < 50; ++round) {
    std::atomic<int> calls{0};
    pool.ParallelFor(17, [&](std::size_t) { calls.fetch_add(1); });
    ASSERT_EQ(calls.load(), 17);
  }
}

TEST(ThreadPoolTest, ExceptionPropagatesToCaller) {
  ThreadPool pool(4);
  EXPECT_THROW(
      pool.ParallelFor(100,
                       [&](std::size_t i) {
                         if (i == 42) {
                           throw std::runtime_error("task 42 failed");
                         }
                       }),
      std::runtime_error);
  // The pool survives a failed job and runs the next one normally.
  std::atomic<int> calls{0};
  pool.ParallelFor(8, [&](std::size_t) { calls.fetch_add(1); });
  EXPECT_EQ(calls.load(), 8);
}

TEST(ThreadPoolTest, CleanJobsAfterAThrowRunEveryIndex) {
  // A throw midway abandons the rest of its job; none of that state
  // may leak into the jobs that follow on the same pool.
  ThreadPool pool(4);
  EXPECT_THROW(pool.ParallelFor(1000,
                                [&](std::size_t i) {
                                  if (i == 500) {
                                    throw std::runtime_error("midway");
                                  }
                                }),
               std::runtime_error);
  for (int round = 0; round < 50; ++round) {
    std::vector<std::atomic<int>> hits(257);
    pool.ParallelFor(hits.size(), [&](std::size_t i) { hits[i].fetch_add(1); });
    for (std::size_t i = 0; i < hits.size(); ++i) {
      ASSERT_EQ(hits[i].load(), 1) << "round " << round << " index " << i;
    }
  }
}

TEST(ThreadPoolTest, ConcurrentCallersBothComplete) {
  // Two non-worker threads share one pool: their jobs run one after
  // the other, and each job runs every one of its indices exactly once.
  ThreadPool pool(4);
  constexpr std::size_t kN = 3000;
  constexpr int kRounds = 20;
  std::vector<std::atomic<int>> hits_a(kN);
  std::vector<std::atomic<int>> hits_b(kN);
  auto caller = [&](std::vector<std::atomic<int>>* hits) {
    for (int round = 0; round < kRounds; ++round) {
      pool.ParallelFor(kN, [&](std::size_t i) { (*hits)[i].fetch_add(1); });
    }
  };
  {
    std::jthread a(caller, &hits_a);
    std::jthread b(caller, &hits_b);
  }
  for (std::size_t i = 0; i < kN; ++i) {
    ASSERT_EQ(hits_a[i].load(), kRounds) << "index " << i;
    ASSERT_EQ(hits_b[i].load(), kRounds) << "index " << i;
  }
}

TEST(ThreadPoolTest, SmallestIndexExceptionWinsDeterministically) {
  // All four tasks rendezvous on a spin barrier before any of them
  // throws (pool(4) with n = 4 gives one single-index chunk per
  // worker, so all four genuinely run concurrently). Whatever the
  // completion race, the rethrown exception must be task 0's — the
  // smallest index — not whichever thread reported first.
  for (int round = 0; round < 20; ++round) {
    ThreadPool pool(4);
    std::atomic<int> arrived{0};
    try {
      pool.ParallelFor(4, [&](std::size_t i) {
        arrived.fetch_add(1);
        while (arrived.load() < 4) {
        }
        throw std::runtime_error("task " + std::to_string(i));
      });
      FAIL() << "expected an exception";
    } catch (const std::runtime_error& error) {
      EXPECT_STREQ(error.what(), "task 0") << "round " << round;
    }
  }
}

TEST(ThreadPoolTest, NestedParallelForRunsInline) {
  // A task that fans out on its own pool must not deadlock; the inner
  // loop runs inline on the worker.
  ThreadPool pool(2);
  std::atomic<int> inner_calls{0};
  pool.ParallelFor(4, [&](std::size_t) {
    pool.ParallelFor(5, [&](std::size_t) { inner_calls.fetch_add(1); });
  });
  EXPECT_EQ(inner_calls.load(), 20);
}

TEST(ThreadPoolTest, DefaultWorkerCountIsPositive) {
  EXPECT_GE(ThreadPool::DefaultWorkerCount(), 1u);
  ThreadPool pool;  // workers = 0 -> DefaultWorkerCount()
  EXPECT_EQ(pool.worker_count(), ThreadPool::DefaultWorkerCount());
}

TEST(ThreadPoolTest, UnstartablePoolThrowsFatalNamingTheCount) {
  const std::size_t huge = std::numeric_limits<std::size_t>::max();
  try {
    ThreadPool pool(huge);
    FAIL() << "expected FatalError";
  } catch (const FatalError& error) {
    EXPECT_NE(std::string(error.what()).find(std::to_string(huge)),
              std::string::npos)
        << error.what();
  }
}

TEST(ThreadPoolTest, WorkersForCapsAtTheTaskCount) {
  EXPECT_EQ(ThreadPool::WorkersFor(100000, 36), 36u);
  EXPECT_EQ(ThreadPool::WorkersFor(4, 36), 4u);
  EXPECT_EQ(ThreadPool::WorkersFor(1, 36), 1u);
  EXPECT_EQ(ThreadPool::WorkersFor(8, 0), 0u);
  EXPECT_EQ(ThreadPool::WorkersFor(0, 100000),
            ThreadPool::DefaultWorkerCount());
}

TEST(ThreadPoolTest, FreeFunctionFallsBackInline) {
  // Null pool: runs on the calling thread, same results.
  std::vector<int> out(10, 0);
  ParallelFor(nullptr, out.size(),
              [&](std::size_t i) { out[i] = static_cast<int>(i) + 1; });
  std::vector<int> expected(10);
  std::iota(expected.begin(), expected.end(), 1);
  EXPECT_EQ(out, expected);
}

}  // namespace
}  // namespace vrddram
