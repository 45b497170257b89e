#include "exec/exec_node.h"

#include <algorithm>
#include <chrono>

#include "common/memory_tracker.h"

namespace nestra {

namespace {
using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}
}  // namespace

const char* QueryPhaseLabel(QueryPhase phase) {
  switch (phase) {
    case QueryPhase::kUnattributed:
      return "unattributed";
    case QueryPhase::kUnnestJoin:
      return "unnest-join";
    case QueryPhase::kNest:
      return "nest";
    case QueryPhase::kLinkingSelection:
      return "linking-selection";
    case QueryPhase::kPostProcessing:
      return "post-processing";
  }
  return "unknown";
}

const char* PipelineRoleLabel(PipelineRole role) {
  switch (role) {
    case PipelineRole::kSource:
      return "source";
    case PipelineRole::kStreaming:
      return "streaming";
    case PipelineRole::kSerialStreaming:
      return "serial-streaming";
    case PipelineRole::kBreaker:
      return "breaker";
  }
  return "unknown";
}

Status ExecNode::Open() {
  // A node re-used across Open() calls must not leak the previous run's
  // counters (or its timings) into this run's profile snapshot; open_calls
  // is the one cumulative field, so re-use stays visible.
  const int64_t open_calls = stats_.open_calls;
  stats_ = OperatorStats{};
  stats_.open_calls = open_calls + 1;
  adapter_saw_eof_ = false;
  if (!timing_) return OpenImpl();
  const Clock::time_point start = Clock::now();
  Status s = OpenImpl();
  stats_.open_seconds += SecondsSince(start);
  return s;
}

Status ExecNode::Next(Row* out, bool* eof) {
  ++stats_.next_calls;
  if (!timing_) {
    Status s = NextImpl(out, eof);
    if (s.ok() && !*eof) ++stats_.rows_out;
    return s;
  }
  const Clock::time_point start = Clock::now();
  Status s = NextImpl(out, eof);
  stats_.next_seconds += SecondsSince(start);
  if (s.ok() && !*eof) ++stats_.rows_out;
  return s;
}

Status ExecNode::NextBatch(RowBatch* out, bool* eof) {
  ++stats_.next_calls;
  out->Reset(output_schema());
  if (!timing_) {
    Status s = NextBatchImpl(out, eof);
    if (s.ok() && !out->empty()) {
      stats_.rows_out += out->num_rows();
      ++stats_.batches_out;
      RecordBatchBytes(*out);
    }
    return s;
  }
  const Clock::time_point start = Clock::now();
  Status s = NextBatchImpl(out, eof);
  stats_.next_seconds += SecondsSince(start);
  if (s.ok() && !out->empty()) {
    stats_.rows_out += out->num_rows();
    ++stats_.batches_out;
    RecordBatchBytes(*out);
  }
  return s;
}

Status ExecNode::HandOffRefs(RowRefs* out, bool* handed) {
  ++stats_.next_calls;
  if (!timing_) {
    NESTRA_RETURN_NOT_OK(HandOffRefsImpl(out, handed));
  } else {
    const Clock::time_point start = Clock::now();
    const Status s = HandOffRefsImpl(out, handed);
    stats_.next_seconds += SecondsSince(start);
    NESTRA_RETURN_NOT_OK(s);
  }
  if (*handed) stats_.rows_out += out->num_rows();
  return Status::OK();
}

void ExecNode::RecordBatchBytes(const RowBatch& batch) {
  // The column vectors this node just filled are its transient working
  // set; the largest one is the node's batch-level memory peak. One
  // ByteSize walk per ~1024-row batch, never per row.
  const int64_t bytes = batch.ByteSize();
  if (bytes > stats_.peak_mem_bytes) stats_.peak_mem_bytes = bytes;
}

Status ExecNode::NextBatchImpl(RowBatch* out, bool* eof) {
  *eof = false;
  if (adapter_saw_eof_) {
    *eof = true;
    return Status::OK();
  }
  Row row;
  bool row_eof = false;
  while (out->num_rows() < RowBatch::kDefaultCapacity) {
    NESTRA_RETURN_NOT_OK(NextImpl(&row, &row_eof));
    if (row_eof) {
      adapter_saw_eof_ = true;
      break;
    }
    out->AppendRow(std::move(row));
    row = Row();
  }
  if (!out->empty()) ++stats_.adapter_batches;
  *eof = out->empty();
  return Status::OK();
}

void ExecNode::Close() {
  if (!timing_) {
    CloseImpl();
    return;
  }
  const Clock::time_point start = Clock::now();
  CloseImpl();
  stats_.open_seconds += SecondsSince(start);
}

void ExecNode::SetPhaseRecursive(QueryPhase phase) {
  if (phase_ == QueryPhase::kUnattributed) phase_ = phase;
  for (ExecNode* child : children()) child->SetPhaseRecursive(phase);
}

void ExecNode::EnableTimingRecursive() {
  timing_ = true;
  for (ExecNode* child : children()) child->EnableTimingRecursive();
}

namespace {

// Appends the full output of an already-opened node to `batches` as
// non-empty batches: NextBatch's with `vectorized`, else Next's rows packed
// into kDefaultCapacity-row batches.
Status DrainAllBatches(ExecNode* node, bool vectorized,
                       std::vector<RowBatch>* batches) {
  RowBatch batch;
  if (vectorized) {
    bool eof = false;
    while (true) {
      NESTRA_RETURN_NOT_OK(node->NextBatch(&batch, &eof));
      if (eof) break;
      batches->push_back(std::move(batch));
    }
    return Status::OK();
  }
  const auto flush = [&]() {
    if (batch.empty()) return;
    batches->push_back(std::move(batch));
  };
  batch.Reset(node->output_schema());
  Row row;
  bool eof = false;
  while (true) {
    NESTRA_RETURN_NOT_OK(node->Next(&row, &eof));
    if (eof) break;
    if (batch.num_rows() == RowBatch::kDefaultCapacity) {
      flush();
      batch.Reset(node->output_schema());
    }
    batch.AppendRow(std::move(row));
    row = Row();
  }
  flush();
  return Status::OK();
}

}  // namespace

Status DrainAllRefs(ExecNode* node, bool vectorized, RowRefs* out) {
  if (vectorized) {
    bool handed = false;
    NESTRA_RETURN_NOT_OK(node->HandOffRefs(out, &handed));
    if (handed) return Status::OK();
  }
  std::vector<RowBatch> batches;
  NESTRA_RETURN_NOT_OK(DrainAllBatches(node, vectorized, &batches));
  *out = RowRefs::Identity(std::move(batches),
                           node->output_schema().num_fields());
  return Status::OK();
}

Result<Table> CollectTable(ExecNode* node, bool vectorized, int64_t* bytes) {
  NESTRA_RETURN_NOT_OK(node->Open());
  Table out(node->output_schema());
  if (vectorized) {
    RowRefs refs;
    bool handed = false;
    NESTRA_RETURN_NOT_OK(node->HandOffRefs(&refs, &handed));
    if (handed) {
      out = Table(node->output_schema(), std::move(refs));
      if (bytes != nullptr) *bytes += TableBytes(out);
      node->Close();
      return out;
    }
    RowBatch batch;
    bool eof = false;
    while (true) {
      NESTRA_RETURN_NOT_OK(node->NextBatch(&batch, &eof));
      if (eof) break;
      if (bytes != nullptr) *bytes += BatchRowBytes(batch);
      out.AppendBatch(std::move(batch));
    }
    node->Close();
    return out;
  }
  Row row;
  bool eof = false;
  while (true) {
    NESTRA_RETURN_NOT_OK(node->Next(&row, &eof));
    if (eof) break;
    out.AppendUnchecked(std::move(row));
    if (bytes != nullptr) *bytes += RowBytes(out.rows().back());
    row = Row();
  }
  node->Close();
  return out;
}

Status TableSourceNode::OpenImpl() {
  // The batch hand-over only ever runs against an opened node, so an Open
  // that sees it is a reopen — and the data is gone.
  if (batches_out_ != 0) {
    return Status::Internal(
        "TableSource reopened after NextBatch handed its batches over; the "
        "replay would be silently empty");
  }
  pos_ = 0;
  reader_.reset();
  if (charged_bytes_ == 0) {
    charged_bytes_ = TableBytes(table_);
    if (QueryMemoryTracker* mem = CurrentQueryMemory()) {
      NESTRA_RETURN_NOT_OK(mem->Charge(charged_bytes_));
    }
  }
  stats_.mem_bytes = charged_bytes_;
  stats_.peak_mem_bytes = charged_bytes_;
  return Status::OK();
}

void TableSourceNode::CloseImpl() {
  if (charged_bytes_ == 0) return;
  if (QueryMemoryTracker* mem = CurrentQueryMemory()) {
    mem->Release(charged_bytes_);
  }
  charged_bytes_ = 0;
  stats_.mem_bytes = 0;
}

Status TableSourceNode::NextImpl(Row* out, bool* eof) {
  if (batches_out_ != 0) {
    return Status::Internal(
        "TableSource read row by row after handing batches over");
  }
  if (pos_ >= table_.num_rows()) {
    *eof = true;
    return Status::OK();
  }
  *eof = false;
  *out = table_.rows()[pos_++];
  return Status::OK();
}

Status TableSourceNode::HandOffRefsImpl(RowRefs* out, bool* handed) {
  if (batches_out_ != 0 || pos_ != 0) {
    return Status::Internal("TableSource handed off after it was read");
  }
  // Rows stay (they are copied into batches), so only a columnar or
  // referenced body marks the node as handed over.
  if (table_.columnar()) batches_out_ = 1;
  *out = table_.TakeRefs();
  *handed = true;
  return Status::OK();
}

Status TableSourceNode::NextBatchImpl(RowBatch* out, bool* eof) {
  if (table_.referenced()) {
    if (reader_ == nullptr) {
      reader_ = std::make_unique<RefReader>(table_.refs());
    }
    const int64_t end =
        std::min(table_.num_rows(), pos_ + RowBatch::kDefaultCapacity);
    reader_->AppendRange(pos_, end, out);
    out->set_num_rows(end - pos_);
    pos_ = end;
    *eof = out->empty();
    return Status::OK();
  }
  if (table_.columnar() && pos_ == 0) {
    std::vector<RowBatch>& batches = table_.batches();
    if (batches_out_ < batches.size()) {
      *out = std::move(batches[batches_out_++]);
      out->Rebind(table_.schema());
    }
    *eof = out->empty();
    return Status::OK();
  }
  const int64_t total = table_.num_rows();
  int64_t end = pos_ + RowBatch::kDefaultCapacity;
  if (end > total) end = total;
  const std::vector<Row>& rows = table_.rows();
  for (; pos_ < end; ++pos_) {
    out->AppendRow(rows[pos_]);
  }
  *eof = out->empty();
  return Status::OK();
}

}  // namespace nestra
