#ifndef NESTRA_EXEC_EXEC_NODE_H_
#define NESTRA_EXEC_EXEC_NODE_H_

#include <memory>
#include <string>
#include <vector>

#include "common/row.h"
#include "common/row_batch.h"
#include "common/schema.h"
#include "common/status.h"
#include "common/table.h"
#include "exec/operator_stats.h"

namespace nestra {

/// \brief Pipeline-scheduling classification of an operator (DESIGN.md
/// §11). The push-based executor decomposes a plan into source→streaming→
/// sink pipelines; an operator's role decides where pipeline boundaries
/// fall when the stage DAG is built:
///
///  * kSource — emits rows from storage or owned materialized state
///    (Scan, TableSource); heads a pipeline.
///  * kStreaming — transforms rows/batches as they flow (Filter, Project);
///    rides inside a pipeline.
///  * kSerialStreaming — streaming, but carries cross-row state that pins
///    it to one in-order lane (Distinct, Limit, the fused nest+select
///    evaluator).
///  * kBreaker — must consume its entire input before emitting its first
///    row (Sort, HashJoin build, Aggregate, the join fallbacks); ends a
///    pipeline and becomes a sink with explicit dependencies.
enum class PipelineRole { kSource, kStreaming, kSerialStreaming, kBreaker };

const char* PipelineRoleLabel(PipelineRole role);

/// \brief Volcano-style pull operator.
///
/// Protocol: `Open()` once (binds expressions, builds hash tables, sorts —
/// all pipeline-breaking work), then `Next(&row, &eof)` until `eof`, then
/// `Close()`. Nodes own their children. Rows flow by value (moved where
/// possible); pipelined stages never materialize, which is what makes the
/// paper's fused nest+linking-selection (§4.2.2) a genuine single pass.
///
/// The public Open/Next/Close entry points are non-virtual wrappers that
/// maintain the embedded OperatorStats block and delegate to the protected
/// `*Impl` virtuals subclasses implement. Row/call counters are always on;
/// the steady_clock timers only run after EnableTimingRecursive() (i.e.
/// under `NraOptions::profile`), so unprofiled queries never touch the
/// clock on the per-row path.
class ExecNode {
 public:
  virtual ~ExecNode() = default;

  ExecNode(const ExecNode&) = delete;
  ExecNode& operator=(const ExecNode&) = delete;

  /// Schema of the rows this node produces. Valid after construction.
  virtual const Schema& output_schema() const = 0;

  /// Operator name for EXPLAIN-style debugging.
  virtual std::string name() const = 0;

  /// Optional one-line annotation (scan target, fused group counts, ...)
  /// rendered next to the name by EXPLAIN ANALYZE.
  virtual std::string detail() const { return ""; }

  /// Child operators, left to right. Leaves return {}.
  virtual std::vector<ExecNode*> children() const { return {}; }

  /// Pipeline-scheduling role (see PipelineRole above). Pure row/batch
  /// transforms stream by default; sources, breakers, and order-dependent
  /// streamers override.
  virtual PipelineRole role() const { return PipelineRole::kStreaming; }

  Status Open();

  /// Produces the next row. Sets `*eof` to true (leaving `*out` untouched)
  /// when the stream is exhausted.
  Status Next(Row* out, bool* eof);

  /// Produces the next batch of rows (vectorized mode). `*out` is reset to
  /// this node's output schema and filled with up to ~RowBatch's capacity
  /// rows (operators finishing a unit of work — e.g. a join completing one
  /// probe row's matches — may emit slightly more). `*eof` is set exactly
  /// when the batch comes back empty; a stream's batches are all non-empty
  /// until the final empty one. Like Next(), this maintains OperatorStats.
  /// Operators without a native NextBatchImpl run through a row-at-a-time
  /// adapter, so the two protocols are freely interleavable per node edge
  /// (but pick one per edge: both consume the same underlying stream).
  Status NextBatch(RowBatch* out, bool* eof);

  /// Hands the node's whole output over as row references (DESIGN.md §8),
  /// for a consumer that reads them in place instead of gathering batches.
  /// TableSource and the vectorized hash join can and set `*handed`;
  /// every other node clears it, leaves `*out` alone, and is read through
  /// NextBatch. Call after Open and before any Next or NextBatch. Like
  /// NextBatch it maintains OperatorStats: the rows count as emitted.
  Status HandOffRefs(RowRefs* out, bool* handed);

  void Close();

  const OperatorStats& stats() const { return stats_; }
  QueryPhase phase() const { return phase_; }
  void set_phase(QueryPhase phase) { phase_ = phase; }

  /// Tags this node and every descendant that is still kUnattributed.
  /// Pre-tagged subtrees (e.g. the sort inside the fused pipeline, which
  /// belongs to the nest phase) keep their more specific phase.
  void SetPhaseRecursive(QueryPhase phase);

  /// Turns on the wall-clock timers on this node and every descendant.
  void EnableTimingRecursive();

 protected:
  ExecNode() = default;

  virtual Status OpenImpl() = 0;
  virtual Status NextImpl(Row* out, bool* eof) = 0;
  virtual void CloseImpl() = 0;

  /// Default adapter: fills `out` by looping NextImpl. Operators with a
  /// profitable columnar form override this (scan, filter, sort, project,
  /// hash join, fused nest+select).
  virtual Status NextBatchImpl(RowBatch* out, bool* eof);

  /// Default: no reference hand-over.
  virtual Status HandOffRefsImpl(RowRefs* /*out*/, bool* handed) {
    *handed = false;
    return Status::OK();
  }

  /// Folds a batch-level footprint into peak_mem_bytes, as an emitted
  /// batch's ByteSize is: for a hand-over that emits no batches but must
  /// report the peak of the batches it stands for.
  void RecordPeakBytes(int64_t bytes) {
    if (bytes > stats_.peak_mem_bytes) stats_.peak_mem_bytes = bytes;
  }

  OperatorStats stats_;
  bool timing_ = false;

 private:
  // Folds one emitted batch's column-vector footprint into
  // peak_mem_bytes (always on; see OperatorStats).
  void RecordBatchBytes(const RowBatch& batch);

  QueryPhase phase_ = QueryPhase::kUnattributed;
  // The row adapter must not call NextImpl again after it reported eof
  // (operators are not required to be re-callable past the end).
  bool adapter_saw_eof_ = false;
};

using ExecNodePtr = std::unique_ptr<ExecNode>;

/// Drains a node (Open/Next*/Close) into a materialized table. With
/// `vectorized` a node that hands its output over as row references
/// (HandOffRefs) leaves them as the table's referenced body; any other
/// drains over NextBatch and the table keeps the drained batches as its
/// columnar body (Table). Without `vectorized` it holds rows.
/// Either way the rows it yields are cell-for-cell identical. When `bytes`
/// is non-null it accumulates the logical byte footprint of the collected
/// rows (RowBytes, computed per batch by BatchRowBytes) — no extra pass.
Result<Table> CollectTable(ExecNode* node, bool vectorized = false,
                           int64_t* bytes = nullptr);

/// The full output of an already-opened node as row references, for the
/// columnar breakers (sort, hash join): with `vectorized`, the node's
/// HandOffRefs when it has one, else its NextBatch batches; without, the
/// rows from Next packed into kDefaultCapacity-row batches. Drained
/// batches become one source read in order. The same rows in the same
/// order either way.
Status DrainAllRefs(ExecNode* node, bool vectorized, RowRefs* out);

/// \brief Leaf node replaying an owned, already-materialized table.
/// Used wherever an intermediate result re-enters the pipeline.
///
/// HandOffRefs gives the body to a breaker that reads it in place (the
/// sort, the vectorized hash join): a referenced body moves out as it is,
/// a columnar one becomes one source, and rows are packed into batches.
/// NextBatch hands a columnar table's batches over by move (re-pointed at
/// this node's schema), so the stage boundary copies nothing; a
/// referenced body is gathered window by window and a row-bodied table is
/// re-packed into batches. Next replays row by row (turning any other
/// body into rows first). Once a body was moved out the node cannot be
/// reopened: OpenImpl fails loudly rather than silently replaying an
/// emptied table (the stale-stats-on-reopen bug class).
class TableSourceNode final : public ExecNode {
 public:
  explicit TableSourceNode(Table table) : table_(std::move(table)) {}

  const Schema& output_schema() const override { return table_.schema(); }
  std::string name() const override { return "TableSource"; }
  PipelineRole role() const override { return PipelineRole::kSource; }

 protected:
  /// Charges the table's logical bytes to the current query tracker (and
  /// fails with ResourceExhausted past the soft limit). A reopen after a
  /// batch hand-over fails loudly.
  Status OpenImpl() override;
  Status NextImpl(Row* out, bool* eof) override;
  Status NextBatchImpl(RowBatch* out, bool* eof) override;
  Status HandOffRefsImpl(RowRefs* out, bool* handed) override;
  void CloseImpl() override;

 private:
  Table table_;
  int64_t pos_ = 0;
  // Columnar batches handed over so far (1 after a columnar or referenced
  // body was handed off whole).
  size_t batches_out_ = 0;
  int64_t charged_bytes_ = 0;
  // Reads a referenced body for NextBatch's window-by-window gather.
  std::unique_ptr<RefReader> reader_;
};

}  // namespace nestra

#endif  // NESTRA_EXEC_EXEC_NODE_H_
