#include "common/memory_tracker.h"

#include <algorithm>
#include <mutex>
#include <sstream>
#include <utility>
#include <vector>

namespace nestra {
namespace {

void AtomicMax(std::atomic<int64_t>* target, int64_t value) {
  int64_t cur = target->load(std::memory_order_relaxed);
  while (cur < value && !target->compare_exchange_weak(
                            cur, value, std::memory_order_relaxed)) {
  }
}

/// Process-level roll-up plus the set of live sessions, for `\memory`.
/// Heap-allocated leaky singleton so sessions destroyed during static
/// teardown can still unregister safely.
struct ProcessMemoryRegistry {
  std::mutex mu;
  std::vector<SessionMemoryTracker*> sessions;
  std::atomic<int64_t> current{0};
  std::atomic<int64_t> peak{0};
  std::atomic<int64_t> cumulative{0};
  std::atomic<int64_t> queries{0};
};

ProcessMemoryRegistry& Registry() {
  static ProcessMemoryRegistry* registry = new ProcessMemoryRegistry();
  return *registry;
}

thread_local QueryMemoryTracker* tls_query_memory = nullptr;
thread_local SessionMemoryTracker* tls_session_memory = nullptr;

}  // namespace

int64_t BatchRowBytes(const RowBatch& batch) {
  int64_t bytes =
      batch.num_rows() *
      static_cast<int64_t>(sizeof(Row) +
                           static_cast<size_t>(batch.num_columns()) *
                               sizeof(Value));
  for (int c = 0; c < batch.num_columns(); ++c) {
    bytes += batch.column(c).StringBytes();
  }
  return bytes;
}

int64_t RowRefsBytes(const RowRefs& refs) {
  if (refs.logical_bytes >= 0) return refs.logical_bytes;
  const int64_t n = refs.num_rows();
  int64_t bytes =
      n * static_cast<int64_t>(sizeof(Row) +
                               refs.columns.size() * sizeof(Value));
  for (const RowRefs::Column& c : refs.columns) {
    const std::vector<RowBatch>& batches =
        *refs.sources[static_cast<size_t>(c.source)];
    // Only string and generic storage carries payload.
    const bool payload = std::any_of(
        batches.begin(), batches.end(), [&c](const RowBatch& b) {
          const ColumnVector& col = b.column(c.column);
          return col.generic() || col.type() == TypeId::kString;
        });
    if (!payload) continue;
    bytes += SourceColumn(batches, c.column)
                 .StringBytes(refs.refs[static_cast<size_t>(c.source)].data(),
                              n);
  }
  refs.logical_bytes = bytes;
  return bytes;
}

int64_t TableBytes(const Table& table) {
  if (table.referenced()) return RowRefsBytes(table.refs());
  int64_t bytes = 0;
  if (table.columnar()) {
    for (const RowBatch& batch : table.batches()) {
      bytes += BatchRowBytes(batch);
    }
    return bytes;
  }
  for (const Row& row : table.rows()) bytes += RowBytes(row);
  return bytes;
}

QueryMemoryTracker::QueryMemoryTracker(int64_t limit)
    : limit_(limit), session_(tls_session_memory) {}

QueryMemoryTracker::~QueryMemoryTracker() {
  // A failed query can exit with live charges still outstanding; return
  // them so the session/process `current` gauges do not drift.
  int64_t residual = current_.load(std::memory_order_relaxed);
  if (residual != 0) Release(residual);
  int64_t final_peak = peak_.load(std::memory_order_relaxed);
  if (session_ != nullptr) {
    session_->FoldQueryPeak(final_peak);
  } else {
    ProcessMemoryRegistry& reg = Registry();
    AtomicMax(&reg.peak, final_peak);
    reg.cumulative.fetch_add(final_peak, std::memory_order_relaxed);
    reg.queries.fetch_add(1, std::memory_order_relaxed);
  }
}

Status QueryMemoryTracker::Exceeded(int64_t attempted) const {
  std::ostringstream oss;
  oss << "query memory limit exceeded: accounted " << attempted
      << " bytes > max_query_mem=" << limit_ << " bytes";
  return Status::ResourceExhausted(oss.str());
}

Status QueryMemoryTracker::Charge(int64_t bytes) {
  if (bytes == 0) return Status::OK();
  int64_t now =
      current_.fetch_add(bytes, std::memory_order_relaxed) + bytes;
  if (session_ != nullptr) session_->AddCurrent(bytes);
  Registry().current.fetch_add(bytes, std::memory_order_relaxed);
  if (limit_ > 0 && now > limit_) return Exceeded(now);
  return Status::OK();
}

void QueryMemoryTracker::Release(int64_t bytes) {
  if (bytes == 0) return;
  current_.fetch_sub(bytes, std::memory_order_relaxed);
  if (session_ != nullptr) session_->AddCurrent(-bytes);
  Registry().current.fetch_sub(bytes, std::memory_order_relaxed);
}

Status QueryMemoryTracker::FoldStage(int64_t stage_bytes) {
  AtomicMax(&peak_, stage_bytes);
  if (limit_ > 0 && stage_bytes > limit_) return Exceeded(stage_bytes);
  return Status::OK();
}

SessionMemoryTracker::SessionMemoryTracker(std::string label)
    : label_(std::move(label)) {
  ProcessMemoryRegistry& reg = Registry();
  std::lock_guard<std::mutex> lock(reg.mu);
  reg.sessions.push_back(this);
}

SessionMemoryTracker::~SessionMemoryTracker() {
  ProcessMemoryRegistry& reg = Registry();
  std::lock_guard<std::mutex> lock(reg.mu);
  for (size_t i = 0; i < reg.sessions.size(); ++i) {
    if (reg.sessions[i] == this) {
      reg.sessions.erase(reg.sessions.begin() +
                         static_cast<ptrdiff_t>(i));
      break;
    }
  }
}

void SessionMemoryTracker::FoldQueryPeak(int64_t peak_bytes) {
  AtomicMax(&peak_, peak_bytes);
  cumulative_.fetch_add(peak_bytes, std::memory_order_relaxed);
  queries_.fetch_add(1, std::memory_order_relaxed);
  ProcessMemoryRegistry& reg = Registry();
  AtomicMax(&reg.peak, peak_bytes);
  reg.cumulative.fetch_add(peak_bytes, std::memory_order_relaxed);
  reg.queries.fetch_add(1, std::memory_order_relaxed);
}

int64_t ProcessMemoryCurrent() {
  return Registry().current.load(std::memory_order_relaxed);
}

int64_t ProcessMemoryPeak() {
  return Registry().peak.load(std::memory_order_relaxed);
}

int64_t ProcessMemoryCumulative() {
  return Registry().cumulative.load(std::memory_order_relaxed);
}

std::string DumpMemoryHierarchy() {
  ProcessMemoryRegistry& reg = Registry();
  std::ostringstream oss;
  oss << "process: current=" << reg.current.load(std::memory_order_relaxed)
      << "B peak=" << reg.peak.load(std::memory_order_relaxed)
      << "B cumulative="
      << reg.cumulative.load(std::memory_order_relaxed)
      << "B queries=" << reg.queries.load(std::memory_order_relaxed)
      << "\n";
  std::lock_guard<std::mutex> lock(reg.mu);
  if (reg.sessions.empty()) {
    oss << "  (no live sessions)\n";
    return oss.str();
  }
  for (const SessionMemoryTracker* s : reg.sessions) {
    oss << "  session " << s->label() << ": current=" << s->current()
        << "B peak=" << s->peak() << "B cumulative=" << s->cumulative()
        << "B queries=" << s->queries() << "\n";
  }
  return oss.str();
}

QueryMemoryTracker* CurrentQueryMemory() { return tls_query_memory; }

ScopedQueryMemory::ScopedQueryMemory(QueryMemoryTracker* tracker)
    : prev_(tls_query_memory) {
  tls_query_memory = tracker;
}

ScopedQueryMemory::~ScopedQueryMemory() { tls_query_memory = prev_; }

SessionMemoryTracker* CurrentSessionMemory() { return tls_session_memory; }

ScopedSessionMemory::ScopedSessionMemory(SessionMemoryTracker* tracker)
    : prev_(tls_session_memory) {
  tls_session_memory = tracker;
}

ScopedSessionMemory::~ScopedSessionMemory() { tls_session_memory = prev_; }

}  // namespace nestra
