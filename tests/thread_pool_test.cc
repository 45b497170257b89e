// The morsel-parallel substrate: the shared ThreadPool, the ParallelForEach
// / ParallelForMorsels fan-out primitives, and the parallel stable merge
// sort. The load-bearing property everywhere is determinism: results must
// be identical to the serial path for every thread count.

#include <gtest/gtest.h>

#include <atomic>
#include <algorithm>
#include <cstdint>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/parallel_sort.h"
#include "common/thread_pool.h"
#include "tpch/random.h"

namespace nestra {
namespace {

TEST(ResolveNumThreadsTest, Resolution) {
  EXPECT_EQ(ResolveNumThreads(1), 1);
  EXPECT_EQ(ResolveNumThreads(7), 7);
  EXPECT_GE(ResolveNumThreads(0), 1);   // auto: at least one thread
  EXPECT_GE(ResolveNumThreads(-3), 1);  // negative behaves like auto
}

TEST(ThreadPoolTest, RunsSubmittedTasks) {
  // The tasks' state is declared before the pool, so the pool is destroyed
  // (joining its workers) first: the waiter below may wake while the last
  // task still holds `mu`, and `mu`/`cv` must outlive that task.
  std::atomic<int> counter{0};
  std::mutex mu;
  std::condition_variable cv;
  ThreadPool pool(3);
  EXPECT_EQ(pool.num_workers(), 3);
  constexpr int kTasks = 64;
  for (int i = 0; i < kTasks; ++i) {
    pool.Submit([&] {
      if (counter.fetch_add(1) + 1 == kTasks) {
        // Notify under the lock: the waiter may otherwise destroy cv
        // between its predicate check and this call.
        std::lock_guard<std::mutex> guard(mu);
        cv.notify_all();
      }
    });
  }
  std::unique_lock<std::mutex> lock(mu);
  cv.wait(lock, [&] { return counter.load() == kTasks; });
  EXPECT_EQ(counter.load(), kTasks);
}

TEST(ThreadPoolTest, EnsureWorkersGrowsButNeverShrinks) {
  ThreadPool pool(1);
  pool.EnsureWorkers(4);
  EXPECT_EQ(pool.num_workers(), 4);
  pool.EnsureWorkers(2);
  EXPECT_EQ(pool.num_workers(), 4);
}

TEST(ThreadPoolTest, SharedPoolExists) {
  ThreadPool* shared = ThreadPool::Shared();
  ASSERT_NE(shared, nullptr);
  EXPECT_EQ(shared, ThreadPool::Shared());  // same instance every time
}

TEST(ParallelForEachTest, CoversEveryUnitExactlyOnce) {
  for (const int threads : {1, 2, 5, 8}) {
    for (const int64_t units : {0L, 1L, 7L, 100L, 1000L}) {
      std::vector<std::atomic<int>> hits(static_cast<size_t>(units));
      for (auto& h : hits) h.store(0);
      ParallelForEach(units, threads,
                      [&](int64_t i) { hits[static_cast<size_t>(i)]++; });
      for (int64_t i = 0; i < units; ++i) {
        EXPECT_EQ(hits[static_cast<size_t>(i)].load(), 1)
            << "unit " << i << " threads=" << threads;
      }
    }
  }
}

TEST(MorselCountTest, Bounds) {
  EXPECT_EQ(MorselCount(0, 8), 0);
  EXPECT_EQ(MorselCount(-5, 8), 0);
  EXPECT_EQ(MorselCount(100, 1), 1);   // serial: one morsel
  EXPECT_EQ(MorselCount(100, 8), 1);   // under the 1024-row grain
  EXPECT_GE(MorselCount(100000, 4), 4);
  EXPECT_LE(MorselCount(100000, 4), 4 * 8);
  EXPECT_EQ(MorselCount(1, 8), 1);
}

TEST(ParallelForMorselsTest, RangesPartitionTheInputInOrder) {
  for (const int threads : {1, 3, 8}) {
    for (const int64_t total : {0L, 1L, 1023L, 1024L, 10000L, 50001L}) {
      const int64_t morsels = MorselCount(total, threads);
      std::vector<std::pair<int64_t, int64_t>> ranges(
          static_cast<size_t>(morsels), {-1, -1});
      ParallelForMorsels(total, threads,
                         [&](int64_t m, int64_t begin, int64_t end) {
                           ranges[static_cast<size_t>(m)] = {begin, end};
                         });
      int64_t expected_begin = 0;
      for (const auto& [begin, end] : ranges) {
        if (begin < 0) continue;  // empty trailing morsel never invoked
        EXPECT_EQ(begin, expected_begin);
        EXPECT_LT(begin, end);
        expected_begin = end;
      }
      EXPECT_EQ(expected_begin, total < 0 ? 0 : total)
          << "threads=" << threads << " total=" << total;
    }
  }
}

TEST(ParallelStableSortTest, MatchesSerialStableSortExactly) {
  Rng rng(20050614);
  for (const int threads : {1, 2, 4, 8}) {
    for (const int64_t n : {0L, 1L, 100L, 8192L, 50000L}) {
      std::vector<int64_t> serial;
      serial.reserve(static_cast<size_t>(n));
      for (int64_t i = 0; i < n; ++i) serial.push_back(rng.UniformInt(0, 99));
      std::vector<int64_t> parallel = serial;
      const auto less = [](int64_t a, int64_t b) { return a < b; };
      std::stable_sort(serial.begin(), serial.end(), less);
      ParallelStableSort(&parallel, less, threads);
      EXPECT_EQ(parallel, serial) << "threads=" << threads << " n=" << n;
    }
  }
}

TEST(ParallelStableSortTest, PreservesInputOrderWithinEqualKeys) {
  // Elements carry (key, original index); sorting by key only must keep the
  // indices ascending inside every key run — for every thread count, which
  // is exactly what makes the parallel sort's output unique.
  Rng rng(7);
  constexpr int64_t kN = 40000;  // above the serial cutoff
  std::vector<std::pair<int64_t, int64_t>> input;
  input.reserve(kN);
  for (int64_t i = 0; i < kN; ++i) input.push_back({rng.UniformInt(0, 9), i});
  for (const int threads : {2, 8}) {
    std::vector<std::pair<int64_t, int64_t>> v = input;
    ParallelStableSort(
        &v, [](const auto& a, const auto& b) { return a.first < b.first; },
        threads);
    for (size_t i = 1; i < v.size(); ++i) {
      ASSERT_LE(v[i - 1].first, v[i].first);
      if (v[i - 1].first == v[i].first) {
        ASSERT_LT(v[i - 1].second, v[i].second) << "instability at " << i;
      }
    }
  }
}

TEST(ParallelStableSortTest, MoveOnlyElements) {
  // The sort moves elements (never copies); unique_ptr payloads prove it.
  constexpr int64_t kN = 20000;
  std::vector<std::unique_ptr<int64_t>> v;
  v.reserve(kN);
  for (int64_t i = 0; i < kN; ++i) {
    v.push_back(std::make_unique<int64_t>(kN - i));
  }
  ParallelStableSort(
      &v, [](const auto& a, const auto& b) { return *a < *b; }, 4);
  for (int64_t i = 0; i < kN; ++i) {
    ASSERT_NE(v[static_cast<size_t>(i)], nullptr);
    EXPECT_EQ(*v[static_cast<size_t>(i)], i + 1);
  }
}


TEST(ThreadPoolTest, TryRunOneDrainsQueuedTasksInline) {
  // A pool with zero live workers can still make progress: TryRunOne runs
  // queued tasks on the calling thread, one per call, and reports an empty
  // queue without blocking.
  ThreadPool pool(0);
  std::atomic<int> ran{0};
  for (int i = 0; i < 5; ++i) {
    pool.Submit([&] { ran.fetch_add(1); });
  }
  for (int i = 0; i < 5; ++i) {
    EXPECT_TRUE(pool.TryRunOne());
    EXPECT_EQ(ran.load(), i + 1);
  }
  EXPECT_FALSE(pool.TryRunOne());
  EXPECT_EQ(ran.load(), 5);
}

TEST(ThreadPoolTest, NestedParallelForEachCompletes) {
  // Nested fan-out on the bounded shared pool: every outer unit spawns an
  // inner ParallelForEach. Before waiting loops helped drain the queue this
  // deadlocked when all workers sat in outer bodies waiting for inner
  // helpers nobody was free to run. Completion (and the exact visit count)
  // is the assertion; a hang fails via the test timeout.
  constexpr int64_t kOuter = 8;
  constexpr int64_t kInner = 16;
  for (const int threads : {2, 4, 8}) {
    std::atomic<int64_t> visits{0};
    ParallelForEach(kOuter, threads, [&](int64_t) {
      ParallelForEach(kInner, threads,
                      [&](int64_t) { visits.fetch_add(1); });
    });
    EXPECT_EQ(visits.load(), kOuter * kInner) << "threads=" << threads;
  }
}

TEST(ThreadPoolTest, DoublyNestedParallelForEachCompletes) {
  // One level deeper, mirroring a pipelined DAG task whose body runs a
  // morsel loop that itself sorts in parallel.
  constexpr int64_t kN = 4;
  std::atomic<int64_t> visits{0};
  ParallelForEach(kN, 4, [&](int64_t) {
    ParallelForEach(kN, 4, [&](int64_t) {
      ParallelForEach(kN, 4, [&](int64_t) { visits.fetch_add(1); });
    });
  });
  EXPECT_EQ(visits.load(), kN * kN * kN);
}

TEST(PoolUsageScopeTest, ConcurrentScopesCountOnlyTheirOwnLoops) {
  // Two "stages" on two threads issue loops at the same time. Each scope
  // sees exactly its own loops — including the ones nested inside its
  // units, which run on pool workers — and never the other's, so the
  // scopes sum to no more than the global delta.
  constexpr int kLoops = 6;
  const PoolStatsSnapshot before = GlobalPoolStats();
  PoolStatsSnapshot seen[2];
  std::vector<std::thread> stages;
  for (int s = 0; s < 2; ++s) {
    stages.emplace_back([&, s] {
      PoolUsageScope scope;
      for (int i = 0; i < kLoops; ++i) {
        ParallelForEach(4, 4, [&](int64_t unit) {
          // One nested loop per outer loop, issued from unit 0.
          if (unit == 0) ParallelForEach(3, 2, [](int64_t) {});
        });
      }
      seen[s] = scope.stats();
    });
  }
  for (std::thread& t : stages) t.join();
  const PoolStatsSnapshot total = GlobalPoolStats() - before;
  for (const PoolStatsSnapshot& s : seen) {
    EXPECT_EQ(s.parallel_loops, 2 * kLoops);
    // 3 helpers per outer loop, 1 per nested loop.
    EXPECT_EQ(s.tasks_submitted, kLoops * (3 + 1));
  }
  EXPECT_LE(seen[0].parallel_loops + seen[1].parallel_loops,
            total.parallel_loops);
}

TEST(PoolUsageScopeTest, InnermostScopeWinsAndSerialLoopsAreFree) {
  PoolUsageScope outer;
  {
    PoolUsageScope inner;
    ParallelForEach(4, 2, [](int64_t) {});
    ParallelForEach(4, 1, [](int64_t) {});  // serial: never a pool loop
    EXPECT_EQ(inner.stats().parallel_loops, 1);
  }
  EXPECT_EQ(outer.stats().parallel_loops, 0);
  ParallelForEach(4, 2, [](int64_t) {});
  EXPECT_EQ(outer.stats().parallel_loops, 1);
}

TEST(PoolUsageScopeTest, TasksRunInlineByAWaiterAreNotItsLoops) {
  // A task the waiter drains via TryRunOne belongs to whoever queued it:
  // its loops must not land in the waiter's scope.
  ThreadPool* pool = ThreadPool::Shared();
  std::atomic<bool> ran{false};
  PoolUsageScope scope;
  pool->Submit([&] {
    ParallelForEach(4, 2, [](int64_t) {});
    ran.store(true);
  });
  while (!ran.load()) {
    if (!pool->TryRunOne()) std::this_thread::yield();
  }
  EXPECT_EQ(scope.stats().parallel_loops, 0);
}

}  // namespace
}  // namespace nestra
