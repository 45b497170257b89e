#ifndef NESTRA_COMMON_MEMORY_TRACKER_H_
#define NESTRA_COMMON_MEMORY_TRACKER_H_

#include <atomic>
#include <cstdint>
#include <string>

#include "common/row.h"
#include "common/row_batch.h"
#include "common/status.h"
#include "common/table.h"
#include "common/value.h"

namespace nestra {

/// Hierarchical byte accounting: process -> session -> query -> operator
/// (DESIGN.md §14). Operators keep plain unsynchronized counters
/// (MemoryAcct / OperatorStats::peak_mem_bytes) and fold them into the
/// per-query tracker only at stage and drain boundaries, so the always-on
/// cost is a few integer adds per row — no clocks, no atomics on the
/// per-row path.
///
/// All byte counts are *logical* sizes computed from row content
/// (sizeof(Row/Value) plus string payload), never allocator capacities:
/// logical sizes are a pure function of the data, which is what makes the
/// reported peaks bit-identical across thread counts and across the
/// row/vectorized engines at a fixed configuration.

/// Logical footprint of one value: the variant header plus any string
/// payload it owns.
inline int64_t ValueBytes(const Value& v) {
  int64_t bytes = static_cast<int64_t>(sizeof(Value));
  if (v.is_string()) bytes += static_cast<int64_t>(v.string().size());
  return bytes;
}

/// Logical footprint of one row: the row header (the values vector) plus
/// every value.
inline int64_t RowBytes(const Row& row) {
  int64_t bytes = static_cast<int64_t>(sizeof(Row));
  for (const Value& v : row.values()) bytes += ValueBytes(v);
  return bytes;
}

/// Logical footprint of the rows a batch holds: exactly the RowBytes sum
/// over the rows it would materialize, n·(sizeof(Row) + ncols·sizeof(Value))
/// plus the string payloads. O(1) per numeric column.
int64_t BatchRowBytes(const RowBatch& batch);

/// Logical footprint of the rows a referenced body stands for: the
/// BatchRowBytes of its materialized form, string payloads summed through
/// the references. O(1) per numeric column.
int64_t RowRefsBytes(const RowRefs& refs);

/// Logical footprint of a table, row-bodied, columnar or referenced (the
/// same number for every form). Called only at stage boundaries, never per
/// row.
int64_t TableBytes(const Table& table);

/// \brief Operator-local byte accountant: two plain int64 counters, no
/// synchronization. Embedded in materializing operators; folded into
/// OperatorStats / the query tracker at drain boundaries.
class MemoryAcct {
 public:
  void Add(int64_t bytes) {
    cur_ += bytes;
    if (cur_ > peak_) peak_ = cur_;
  }
  void Release(int64_t bytes) { cur_ -= bytes; }
  void Reset() { cur_ = peak_ = 0; }

  int64_t cur() const { return cur_; }
  int64_t peak() const { return peak_; }

 private:
  int64_t cur_ = 0;
  int64_t peak_ = 0;
};

class SessionMemoryTracker;

/// \brief Per-query byte tracker, created by NraExecutor::Execute for every
/// query and reachable from operators through the thread-local accessor
/// below.
///
/// Two distinct numbers live here:
///
///  * `current()` — live accounted bytes, maintained by operator charges
///    and releases at drain boundaries (a handful of relaxed atomics per
///    stage). This is what the soft limit checks and what `\memory` shows;
///    when the stage DAG runs on several threads its instantaneous value
///    depends on task interleaving.
///  * `peak()` — the *deterministic* query peak: the largest single-stage
///    footprint, folded in with a CAS-max. Max is commutative, so the
///    result is independent of the order concurrent pipeline tasks fold
///    their stages — run-to-run identical at fixed (engine, threads,
///    options).
class QueryMemoryTracker {
 public:
  /// `limit` is NraOptions::max_query_mem (0 = off). Attaches to the
  /// thread-local session tracker, when one is installed.
  explicit QueryMemoryTracker(int64_t limit);

  /// Folds the final peak into the parent session (cumulative += peak,
  /// session peak CAS-max) and releases any residual live bytes a failed
  /// query left charged.
  ~QueryMemoryTracker();

  QueryMemoryTracker(const QueryMemoryTracker&) = delete;
  QueryMemoryTracker& operator=(const QueryMemoryTracker&) = delete;

  /// Accounts `bytes` of live materialized state. Fails with
  /// ResourceExhausted when the soft limit is on and the accounted total
  /// would exceed it — the caller propagates the error and the query fails
  /// with no partial results (the admission ticket is RAII-released).
  Status Charge(int64_t bytes);

  void Release(int64_t bytes);

  /// Folds one completed stage's footprint into the deterministic peak and
  /// applies the same soft-limit check `Charge` does. Stage footprints are
  /// pure functions of row content, so the CAS-max result is
  /// order-insensitive.
  Status FoldStage(int64_t stage_bytes);

  int64_t current() const {
    return current_.load(std::memory_order_relaxed);
  }
  int64_t peak() const { return peak_.load(std::memory_order_relaxed); }
  int64_t limit() const { return limit_; }

 private:
  Status Exceeded(int64_t attempted) const;

  std::atomic<int64_t> current_{0};
  std::atomic<int64_t> peak_{0};
  const int64_t limit_;
  SessionMemoryTracker* const session_;
};

/// \brief Per-session accumulator, owned by the server Session (one per
/// connection). Registered with the process registry for the lifetime of
/// the session so `\memory` can dump the live hierarchy.
class SessionMemoryTracker {
 public:
  explicit SessionMemoryTracker(std::string label);
  ~SessionMemoryTracker();

  SessionMemoryTracker(const SessionMemoryTracker&) = delete;
  SessionMemoryTracker& operator=(const SessionMemoryTracker&) = delete;

  const std::string& label() const { return label_; }

  /// Live bytes charged by this session's in-flight queries.
  int64_t current() const {
    return current_.load(std::memory_order_relaxed);
  }
  /// Largest single-query deterministic peak this session has run.
  int64_t peak() const { return peak_.load(std::memory_order_relaxed); }
  /// Sum of every finished query's peak — the session's cumulative
  /// accounted bytes (`\session` shows this).
  int64_t cumulative() const {
    return cumulative_.load(std::memory_order_relaxed);
  }
  /// Queries whose peaks have been folded in.
  int64_t queries() const {
    return queries_.load(std::memory_order_relaxed);
  }

 private:
  friend class QueryMemoryTracker;

  void AddCurrent(int64_t bytes) {
    current_.fetch_add(bytes, std::memory_order_relaxed);
  }
  void FoldQueryPeak(int64_t peak_bytes);

  const std::string label_;
  std::atomic<int64_t> current_{0};
  std::atomic<int64_t> peak_{0};
  std::atomic<int64_t> cumulative_{0};
  std::atomic<int64_t> queries_{0};
};

/// Process-level roll-up (queries with no session parent fold here
/// directly; sessions fold through their tracker).
int64_t ProcessMemoryCurrent();
int64_t ProcessMemoryPeak();
int64_t ProcessMemoryCumulative();

/// Multi-line rendering of the live hierarchy — process totals, then one
/// line per registered session — for the shell's `\memory` command.
std::string DumpMemoryHierarchy();

/// The query tracker installed on this thread (null outside a query).
/// Operators charge through this; the stage-DAG scheduler re-installs the
/// owning query's tracker inside every DAG task body.
QueryMemoryTracker* CurrentQueryMemory();

/// RAII installer for the thread-local query tracker.
class ScopedQueryMemory {
 public:
  explicit ScopedQueryMemory(QueryMemoryTracker* tracker);
  ~ScopedQueryMemory();

  ScopedQueryMemory(const ScopedQueryMemory&) = delete;
  ScopedQueryMemory& operator=(const ScopedQueryMemory&) = delete;

 private:
  QueryMemoryTracker* prev_;
};

/// The session tracker new QueryMemoryTrackers on this thread attach to
/// (null for direct library callers).
SessionMemoryTracker* CurrentSessionMemory();

/// RAII installer for the thread-local session tracker (the server Session
/// wraps each statement in one).
class ScopedSessionMemory {
 public:
  explicit ScopedSessionMemory(SessionMemoryTracker* tracker);
  ~ScopedSessionMemory();

  ScopedSessionMemory(const ScopedSessionMemory&) = delete;
  ScopedSessionMemory& operator=(const ScopedSessionMemory&) = delete;

 private:
  SessionMemoryTracker* prev_;
};

}  // namespace nestra

#endif  // NESTRA_COMMON_MEMORY_TRACKER_H_
