#ifndef NESTRA_COMMON_TABLE_H_
#define NESTRA_COMMON_TABLE_H_

#include <string>
#include <vector>

#include "common/row.h"
#include "common/row_batch.h"
#include "common/row_refs.h"
#include "common/schema.h"
#include "common/status.h"

namespace nestra {

/// \brief An in-memory flat relation: a schema plus a bag of rows.
///
/// Tables are the materialized interchange format between pipeline stages.
/// The body takes one of three forms (DESIGN.md §8):
///  * rows;
///  * columnar — a list of non-empty RowBatches: a vectorized stage leaves
///    its result as the batches it produced, and the next stage's
///    TableSourceNode hands them on by move;
///  * referenced — a RowRefs: the base scan and the vectorized hash join
///    leave row references into shared, immutable batches instead of
///    copying cells, and the join and the sort read them in place.
/// `num_rows()` never converts. The first batches() call turns a referenced
/// body into batches (one gather per column per kDefaultCapacity-row
/// window), and the first rows() call turns either into rows — each once
/// and one way. Those calls mutate a const Table, which is safe under the
/// engine's single-owner rule: a stage result has one reader at a time,
/// and code that fans rows out to threads calls rows() before it forks.
/// Copies of a referenced table share its sources.
class Table {
 public:
  Table() = default;
  explicit Table(Schema schema) : schema_(std::move(schema)) {}
  Table(Schema schema, std::vector<Row> rows)
      : schema_(std::move(schema)), rows_(std::move(rows)) {}
  /// A referenced body; its columns line up with `schema`. An empty
  /// RowRefs makes an empty table.
  Table(Schema schema, RowRefs refs);

  const Schema& schema() const { return schema_; }
  const std::vector<Row>& rows() const {
    if (referenced()) MaterializeRefs();
    if (!batches_.empty()) Materialize();
    return rows_;
  }
  std::vector<Row>& rows() {
    if (referenced()) MaterializeRefs();
    if (!batches_.empty()) Materialize();
    return rows_;
  }
  int64_t num_rows() const {
    if (referenced()) return refs_.num_rows();
    if (batches_.empty()) return static_cast<int64_t>(rows_.size());
    int64_t n = 0;
    for (const RowBatch& batch : batches_) n += batch.num_rows();
    return n;
  }

  /// True while the body is columnar or referenced (no rows yet).
  bool columnar() const { return !batches_.empty() || referenced(); }
  /// True while the body is referenced.
  bool referenced() const { return refs_.num_rows() > 0; }
  /// The referenced body; empty unless referenced().
  const RowRefs& refs() const { return refs_; }
  /// The body as row references, leaving the table empty unless it held
  /// rows: a referenced body moves out, a columnar one becomes one source
  /// read in order, and rows are copied into kDefaultCapacity-row batches
  /// (and kept).
  RowRefs TakeRefs();

  /// The columnar body (a referenced one is gathered first); empty for a
  /// row-bodied table. Batches point at a schema that may be stale —
  /// rebind before reading through schema().
  const std::vector<RowBatch>& batches() const {
    if (referenced()) MaterializeRefs();
    return batches_;
  }
  std::vector<RowBatch>& batches() {
    if (referenced()) MaterializeRefs();
    return batches_;
  }

  /// Appends a batch's rows, keeping them columnar unless the table
  /// already holds rows. Empty batches are dropped. Columns must match the
  /// schema positionally.
  void AppendBatch(RowBatch batch);

  /// Appends a row; fails if the arity does not match the schema.
  Status Append(Row row);

  /// Unchecked append for hot paths (arity must match).
  void AppendUnchecked(Row row) { rows().push_back(std::move(row)); }

  void Reserve(size_t n) { rows().reserve(n); }

  /// Projection onto the named columns (exact or unqualified names).
  Result<Table> Project(const std::vector<std::string>& columns) const;

  /// Bag equality ignoring row order (sorts copies; O(n log n)).
  static bool BagEquals(const Table& a, const Table& b);

  /// Rows sorted by full-row total order; used by BagEquals and tests.
  Table Sorted() const;

  std::string ToString(int max_rows = 50) const;

 private:
  // Moves the columnar body into rows_ (string payloads move, not copy).
  void Materialize() const;
  // Gathers the referenced body into batches_ and drops the references.
  void MaterializeRefs() const;

  Schema schema_;
  // At most one of rows_ / batches_ / refs_ is non-empty.
  mutable std::vector<Row> rows_;
  mutable std::vector<RowBatch> batches_;
  mutable RowRefs refs_;
};

}  // namespace nestra

#endif  // NESTRA_COMMON_TABLE_H_
