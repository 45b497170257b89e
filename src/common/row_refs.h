#ifndef NESTRA_COMMON_ROW_REFS_H_
#define NESTRA_COMMON_ROW_REFS_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "common/row.h"
#include "common/row_batch.h"

namespace nestra {

/// An immutable list of batches that referenced rows read their cells from.
/// Shared by every result and operator that refers to it; a base table's
/// source is its ColumnarMirror's granules, kept alive through an aliasing
/// pointer to the mirror.
using RefSource = std::shared_ptr<const std::vector<RowBatch>>;

/// \brief A flat relation's rows as references into shared batches, not
/// copies of their cells (DESIGN.md §8).
///
/// Row i of the relation is, for every source s, the row `refs[s][i]` of
/// `sources[s]` (packed with PackRowRef; kNullRef stands for a row of
/// NULLs, the outer join's padding). Output column c is column
/// `columns[c].column` of source `columns[c].source`. A scan produces one
/// source (the mirror's granules, its survivors' refs); a join appends the
/// build's sources to the probe's and composes each output row's refs.
/// Every source has a ref column, even one no output column reads, so the
/// row count is defined for a relation with no columns.
struct RowRefs {
  struct Column {
    int source = 0;
    int column = 0;
  };
  std::vector<RefSource> sources;
  std::vector<std::vector<uint64_t>> refs;  // one per source, num_rows() each
  std::vector<Column> columns;              // one per output column
  /// RowRefsBytes once it was computed, else -1: a stage's fold, the next
  /// stage's TableSource charge and the breaker that takes the references
  /// all ask for the same number. Ask only once the refs are complete.
  mutable int64_t logical_bytes = -1;

  int64_t num_rows() const {
    return refs.empty() ? 0 : static_cast<int64_t>(refs[0].size());
  }

  /// `batches` (each `num_columns` wide) as one source read in order.
  static RowRefs Identity(std::vector<RowBatch> batches, int num_columns);
};

/// \brief Reads a RowRefs' cells: every output column's SourceColumn is
/// resolved once, at construction, so a gather window after window never
/// walks a source's batches again. The RowRefs must outlive the reader and
/// keep its sources and columns; its ref columns may grow.
class RefReader {
 public:
  explicit RefReader(const RowRefs& rows);

  const RowRefs& rows() const { return *rows_; }
  const SourceColumn& column(int c) const {
    return cols_[static_cast<size_t>(c)];
  }
  /// Row `ordinal`, cell-for-cell what materializing it gives.
  Value GetValue(int c, int64_t ordinal) const {
    const size_t s =
        static_cast<size_t>(rows_->columns[static_cast<size_t>(c)].source);
    return cols_[static_cast<size_t>(c)].GetValue(
        rows_->refs[s][static_cast<size_t>(ordinal)]);
  }
  Row MaterializeRow(int64_t ordinal) const;

  /// Appends column `c` of rows [begin, end) to `dst`.
  void AppendRange(int c, int64_t begin, int64_t end, ColumnVector* dst) const;
  /// Appends every column of rows [begin, end) to `out`'s columns (the row
  /// count is the caller's to set).
  void AppendRange(int64_t begin, int64_t end, RowBatch* out) const;

  /// Appends column `c` of the rows `ordinals[0..n)` to `dst`; a kNullRef
  /// ordinal appends a NULL.
  void AppendAt(int c, const uint64_t* ordinals, int64_t n,
                ColumnVector* dst) const;
  /// The same for every column, composing each source's refs once.
  void AppendAt(const uint64_t* ordinals, int64_t n, RowBatch* out) const;

 private:
  // scratch_[k] = the refs of source `s` at ordinals[k].
  void Compose(int s, const uint64_t* ordinals, int64_t n) const;

  const RowRefs* rows_;
  std::vector<SourceColumn> cols_;
  mutable std::vector<uint64_t> scratch_;
};

}  // namespace nestra

#endif  // NESTRA_COMMON_ROW_REFS_H_
