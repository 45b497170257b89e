#ifndef NESTRA_EXEC_SORT_H_
#define NESTRA_EXEC_SORT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "exec/exec_node.h"

namespace nestra {

/// \brief One ORDER BY key: column name + direction. NULLs sort first in
/// ascending order (per Value::TotalOrderCompare), last in descending.
struct SortKey {
  std::string column;
  bool ascending = true;
};

/// \brief Pipeline-breaking multi-key sort. This is the operator the
/// sort-based nest rides on: the "only the deepest nesting involves true
/// physical reordering" optimization (§4.2.1) is one SortNode for all levels.
///
/// The input is drained into batches (columnar; a TableSourceNode hands
/// its batches over by move), each key column is gathered into one typed
/// array, and a permutation of the input rows is stable-sorted over those
/// arrays — the order std::stable_sort with Value::TotalOrderCompare gives
/// the rows. NextBatch gathers the permuted rows column by column;
/// Next materializes one row. With `num_threads > 1` the permutation is
/// sorted by a parallel stable merge sort; the stable order is unique, so
/// the result is element-for-element identical to the serial sort.
class SortNode final : public ExecNode {
 public:
  /// With `vectorized` the input is drained via NextBatch, so batch-capable
  /// children run columnar; otherwise Next's rows are packed into batches.
  /// The sorted rows are identical either way.
  SortNode(ExecNodePtr child, std::vector<SortKey> keys, int num_threads = 1,
           bool vectorized = false)
      : child_(std::move(child)),
        keys_(std::move(keys)),
        num_threads_(num_threads < 1 ? 1 : num_threads),
        vectorized_(vectorized) {}

  const Schema& output_schema() const override {
    return child_->output_schema();
  }
  std::string name() const override { return "Sort"; }
  PipelineRole role() const override { return PipelineRole::kBreaker; }
  std::vector<ExecNode*> children() const override { return {child_.get()}; }

 protected:
  Status OpenImpl() override;
  Status NextImpl(Row* out, bool* eof) override;
  Status NextBatchImpl(RowBatch* out, bool* eof) override;
  void CloseImpl() override;

 private:
  ExecNodePtr child_;
  std::vector<SortKey> keys_;
  int num_threads_ = 1;
  bool vectorized_ = false;
  std::vector<RowBatch> batches_;
  // The sorted permutation of packed row references into batches_
  // (PackRowRef).
  std::vector<uint64_t> order_;
  size_t pos_ = 0;
  int64_t charged_bytes_ = 0;
};

}  // namespace nestra

#endif  // NESTRA_EXEC_SORT_H_
