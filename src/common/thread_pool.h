#ifndef NESTRA_COMMON_THREAD_POOL_H_
#define NESTRA_COMMON_THREAD_POOL_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace nestra {

/// Resolves a user-facing thread-count knob: <= 0 means "use the hardware"
/// (std::thread::hardware_concurrency, at least 1); anything else is taken
/// literally. 1 selects the serial code paths everywhere.
int ResolveNumThreads(int requested);

/// \brief A fixed set of worker threads draining a shared FIFO task queue.
///
/// The pool is deliberately minimal: Submit() enqueues a closure and
/// returns; workers run closures in order. Completion tracking and result
/// placement are the caller's job — ParallelForEach / ParallelForMorsels
/// below package the one pattern the engine needs (morsel-driven loops
/// with deterministic output slots).
class ThreadPool {
 public:
  explicit ThreadPool(int num_workers);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  void Submit(std::function<void()> task);

  /// Pops one queued task and runs it on the calling thread; returns false
  /// without blocking when the queue is empty. This is how blocked waiters
  /// help instead of idling: a thread that must wait for pool work it (or a
  /// task it runs) submitted can drain queued tasks meanwhile, which is what
  /// makes nested parallel loops and the pipeline DAG scheduler safe on a
  /// bounded pool.
  bool TryRunOne();

  int num_workers() const;

  /// Grows the pool to at least `num_workers` threads (never shrinks).
  void EnsureWorkers(int num_workers);

  /// The process-wide pool used by the execution engine. Created on first
  /// use with hardware_concurrency - 1 workers (the query thread itself is
  /// the remaining lane) and grown on demand when a query requests more
  /// parallelism than the hardware advertises. Never destroyed.
  static ThreadPool* Shared();

 private:
  void WorkerLoop();

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::deque<std::function<void()>> queue_;
  std::vector<std::thread> workers_;
  bool stop_ = false;
};

/// \brief Runs `body(i)` for every i in [0, units) from up to `num_threads`
/// threads (the calling thread participates; helpers come from the shared
/// pool). Units are claimed dynamically, so `body` must be safe to call
/// concurrently and must not depend on which thread runs which unit; it
/// must not throw. Blocks until every unit has finished. Nesting is safe:
/// while waiting for its helpers the caller drains other queued pool tasks
/// (ThreadPool::TryRunOne), so an outer loop blocked on helpers can never
/// starve them of workers. With num_threads <= 1 this is a plain serial
/// loop.
void ParallelForEach(int64_t units, int num_threads,
                     const std::function<void(int64_t)>& body);

/// Number of morsels ParallelForMorsels will use for a row range of
/// `total` rows at the given parallelism — call this first to size a
/// per-morsel output-slot vector.
int64_t MorselCount(int64_t total, int num_threads);

/// \brief Morsel-driven parallel loop over a row range: splits [0, total)
/// into MorselCount() contiguous ranges and runs
/// `body(morsel, begin, end)` for each. Morsel m covers rows
/// [m*chunk, min(total, (m+1)*chunk)) — ranges partition the input in
/// order, so writing results into slot `morsel` and concatenating slots in
/// index order reproduces the serial output exactly, regardless of thread
/// count or scheduling. Same concurrency contract as ParallelForEach.
void ParallelForMorsels(
    int64_t total, int num_threads,
    const std::function<void(int64_t, int64_t, int64_t)>& body);

/// \brief Monotonic counters describing shared-pool usage since process
/// start. Profilers snapshot these before and after a stage and report the
/// delta: how many parallel loops ran, how many helper tasks were
/// submitted, and how long callers sat waiting for helpers to drain.
struct PoolStatsSnapshot {
  int64_t parallel_loops = 0;
  int64_t tasks_submitted = 0;
  double wait_seconds = 0;

  PoolStatsSnapshot operator-(const PoolStatsSnapshot& o) const {
    return {parallel_loops - o.parallel_loops,
            tasks_submitted - o.tasks_submitted,
            wait_seconds - o.wait_seconds};
  }
};

/// Current process-wide pool usage counters (cheap: three relaxed loads).
PoolStatsSnapshot GlobalPoolStats();

/// \brief Pool usage attributed to one scope (a profiled executor stage).
///
/// While a scope is live on a thread, every parallel loop that thread
/// issues is counted here as well as in the global counters — and so is
/// every loop issued from inside that loop's units, on whichever thread
/// runs them. Scopes nest on a thread; a loop goes to the innermost one
/// only, and tasks run by ThreadPool::TryRunOne start outside any scope, so
/// each loop lands in at most one scope. Concurrent stages therefore never
/// count each other's loops, and the scopes of one query sum to no more
/// than the global delta across it. Must be destroyed on the thread that
/// created it, in reverse creation order (plain locals guarantee both).
class PoolUsageScope {
 public:
  PoolUsageScope();
  ~PoolUsageScope();

  PoolUsageScope(const PoolUsageScope&) = delete;
  PoolUsageScope& operator=(const PoolUsageScope&) = delete;

  /// Loops, helper tasks and helping-wait time counted so far.
  PoolStatsSnapshot stats() const;

 private:
  friend void ParallelForEach(int64_t units, int num_threads,
                              const std::function<void(int64_t)>& body);

  std::atomic<int64_t> parallel_loops_{0};
  std::atomic<int64_t> tasks_submitted_{0};
  std::atomic<int64_t> wait_nanos_{0};
  PoolUsageScope* prev_;
};

}  // namespace nestra

#endif  // NESTRA_COMMON_THREAD_POOL_H_
