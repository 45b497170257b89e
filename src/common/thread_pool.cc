#include "common/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <utility>

#include "telemetry/trace.h"

namespace nestra {

namespace {
// Process-wide pool usage counters (see GlobalPoolStats). Wait time is kept
// in nanoseconds so the counter can stay a lock-free integer.
std::atomic<int64_t> g_parallel_loops{0};
std::atomic<int64_t> g_tasks_submitted{0};
std::atomic<int64_t> g_wait_nanos{0};

// True on threads whose top frame is ThreadPool::WorkerLoop. Helper tasks
// drained inline by a waiting caller (TryRunOne) use it to label their trace
// spans "pool-task-inline", keeping the "pool-task spans appear only on
// pool-worker tracks" invariant the telemetry smoke checks.
thread_local bool t_is_pool_worker = false;

// Innermost live PoolUsageScope on this thread (see PoolUsageScope).
thread_local PoolUsageScope* t_usage_scope = nullptr;

// Runs `fn` with `scope` as the thread's innermost usage scope.
template <typename Fn>
void RunInScope(PoolUsageScope* scope, Fn&& fn) {
  PoolUsageScope* const saved = t_usage_scope;
  t_usage_scope = scope;
  fn();
  t_usage_scope = saved;
}
}  // namespace

PoolUsageScope::PoolUsageScope() : prev_(t_usage_scope) {
  t_usage_scope = this;
}

PoolUsageScope::~PoolUsageScope() { t_usage_scope = prev_; }

PoolStatsSnapshot PoolUsageScope::stats() const {
  PoolStatsSnapshot snap;
  snap.parallel_loops = parallel_loops_.load(std::memory_order_relaxed);
  snap.tasks_submitted = tasks_submitted_.load(std::memory_order_relaxed);
  snap.wait_seconds =
      static_cast<double>(wait_nanos_.load(std::memory_order_relaxed)) * 1e-9;
  return snap;
}

PoolStatsSnapshot GlobalPoolStats() {
  PoolStatsSnapshot snap;
  snap.parallel_loops = g_parallel_loops.load(std::memory_order_relaxed);
  snap.tasks_submitted = g_tasks_submitted.load(std::memory_order_relaxed);
  snap.wait_seconds =
      static_cast<double>(g_wait_nanos.load(std::memory_order_relaxed)) * 1e-9;
  return snap;
}

int ResolveNumThreads(int requested) {
  if (requested > 0) return requested;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

ThreadPool::ThreadPool(int num_workers) { EnsureWorkers(num_workers); }

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  for (std::thread& t : workers_) t.join();
}

void ThreadPool::Submit(std::function<void()> task) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    queue_.push_back(std::move(task));
  }
  cv_.notify_one();
}

bool ThreadPool::TryRunOne() {
  std::function<void()> task;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (queue_.empty()) return false;
    task = std::move(queue_.front());
    queue_.pop_front();
  }
  // The task belongs to whoever queued it, not to the waiter's scope.
  RunInScope(nullptr, task);
  return true;
}

int ThreadPool::num_workers() const {
  std::lock_guard<std::mutex> lock(mu_);
  return static_cast<int>(workers_.size());
}

void ThreadPool::EnsureWorkers(int num_workers) {
  std::lock_guard<std::mutex> lock(mu_);
  while (static_cast<int>(workers_.size()) < num_workers) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool* ThreadPool::Shared() {
  // Leaked on purpose: workers may still be parked at static-destruction
  // time and joining them from a destructor would be order-fragile.
  static ThreadPool* pool =
      new ThreadPool(std::max(0, ResolveNumThreads(0) - 1));
  return pool;
}

void ThreadPool::WorkerLoop() {
  // Names the worker's track in trace output ("pool-worker" vs the default
  // registration-ordered "thread-<n>"), so pool-task spans are attributable.
  telemetry::SetCurrentThreadName("pool-worker");
  t_is_pool_worker = true;
  while (true) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      if (stop_ && queue_.empty()) return;
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    task();
  }
}

namespace {

/// Shared between the caller and its helper tasks; helper tasks hold a
/// shared_ptr so the state outlives the caller even if a helper is
/// scheduled after all units were already claimed.
struct FanOutState {
  std::function<void(int64_t)> body;
  PoolUsageScope* scope = nullptr;  // the issuing thread's, for nested loops
  int64_t units = 0;
  std::atomic<int64_t> next{0};
  std::mutex mu;
  std::condition_variable done_cv;
  int pending_helpers = 0;

  void RunLoop() {
    while (true) {
      const int64_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= units) return;
      body(i);
    }
  }

  void HelperExit() {
    std::lock_guard<std::mutex> lock(mu);
    if (--pending_helpers == 0) done_cv.notify_all();
  }
};

}  // namespace

void ParallelForEach(int64_t units, int num_threads,
                     const std::function<void(int64_t)>& body) {
  if (units <= 0) return;
  if (num_threads <= 1 || units == 1) {
    for (int64_t i = 0; i < units; ++i) body(i);
    return;
  }
  const int helpers =
      static_cast<int>(std::min<int64_t>(num_threads - 1, units - 1));
  ThreadPool* pool = ThreadPool::Shared();
  pool->EnsureWorkers(helpers);

  g_parallel_loops.fetch_add(1, std::memory_order_relaxed);
  g_tasks_submitted.fetch_add(helpers, std::memory_order_relaxed);
  PoolUsageScope* const scope = t_usage_scope;
  if (scope != nullptr) {
    scope->parallel_loops_.fetch_add(1, std::memory_order_relaxed);
    scope->tasks_submitted_.fetch_add(helpers, std::memory_order_relaxed);
  }

  telemetry::TraceSpan loop_span("pool", "parallel-for");
  loop_span.set_rows(units);

  auto state = std::make_shared<FanOutState>();
  state->body = body;
  state->scope = scope;
  state->units = units;
  state->pending_helpers = helpers;
  for (int i = 0; i < helpers; ++i) {
    pool->Submit([state] {
      // A helper picked up by a waiting caller (TryRunOne) runs off the
      // worker tracks; the distinct span name keeps trace accounting honest.
      telemetry::TraceSpan task_span(
          "pool", t_is_pool_worker ? "pool-task" : "pool-task-inline");
      RunInScope(state->scope, [&] { state->RunLoop(); });
      task_span.End();
      state->HelperExit();
    });
  }
  state->RunLoop();
  const auto wait_start = std::chrono::steady_clock::now();
  // Helping wait: drain other queued pool tasks while our helpers finish.
  // Blocking outright here could deadlock a nested loop — with all workers
  // parked in waits like this one, queued helpers would never run. Once the
  // queue is empty every still-pending helper is already running on some
  // thread and will signal done_cv, so the final blocking wait is safe.
  while (true) {
    {
      std::unique_lock<std::mutex> lock(state->mu);
      if (state->pending_helpers == 0) break;
    }
    if (!pool->TryRunOne()) {
      std::unique_lock<std::mutex> lock(state->mu);
      state->done_cv.wait(lock, [&] { return state->pending_helpers == 0; });
      break;
    }
  }
  const int64_t wait_nanos =
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - wait_start)
          .count();
  g_wait_nanos.fetch_add(wait_nanos, std::memory_order_relaxed);
  if (scope != nullptr) {
    scope->wait_nanos_.fetch_add(wait_nanos, std::memory_order_relaxed);
  }
}

int64_t MorselCount(int64_t total, int num_threads) {
  if (total <= 0) return 0;
  if (num_threads <= 1) return 1;
  // Morsels small enough to balance skew (several per thread), large enough
  // that claiming and slot bookkeeping stay negligible per row.
  constexpr int64_t kMinMorselRows = 1024;
  const int64_t by_grain = (total + kMinMorselRows - 1) / kMinMorselRows;
  return std::max<int64_t>(
      1, std::min<int64_t>(by_grain, int64_t{num_threads} * 8));
}

void ParallelForMorsels(
    int64_t total, int num_threads,
    const std::function<void(int64_t, int64_t, int64_t)>& body) {
  const int64_t morsels = MorselCount(total, num_threads);
  if (morsels == 0) return;
  const int64_t chunk = (total + morsels - 1) / morsels;
  ParallelForEach(morsels, num_threads, [&](int64_t m) {
    const int64_t begin = m * chunk;
    const int64_t end = std::min(total, begin + chunk);
    if (begin < end) body(m, begin, end);
  });
}

}  // namespace nestra
