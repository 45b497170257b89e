#ifndef NESTRA_STORAGE_COLUMNAR_MIRROR_H_
#define NESTRA_STORAGE_COLUMNAR_MIRROR_H_

#include <cstdint>
#include <vector>

#include "common/row_batch.h"
#include "common/schema.h"
#include "common/table.h"
#include "storage/table_stats.h"

namespace nestra {

/// \brief Immutable column-major copy of a registered base table.
///
/// Granule g holds rows [g * kZoneGranuleRows, min(n, (g+1) *
/// kZoneGranuleRows)) as one RowBatch of typed ColumnVectors with null
/// bytes — the same granule the zone map summarizes and a whole number of
/// IoSim pages. Built once at Catalog::RegisterTable (one pass over the
/// rows) and never mutated afterwards, so any number of scans may read it
/// concurrently. The batches point at the mirror's own schema copy, which
/// is why the mirror is neither copyable nor movable.
///
/// Cells are exactly what ColumnVector::Append stores: numeric columns cost
/// 8 bytes plus a null byte per cell, strings a copy of their payload, and a
/// column whose runtime values disagree with its declared type falls back
/// to generic Value storage in the granules where that happens, so
/// ColumnVector::GetValue returns exactly the row store's Value. Scans run
/// compiled predicates on the granules and leave the survivors as row
/// references into them (RowRefs, DESIGN.md §8): the granule list is the
/// scan result's source, held through an aliasing pointer to the mirror,
/// so a result outlives a drop or reload of its table, and any number of
/// results and sessions share one mirror. The row store (`table()`) still
/// serves the row-at-a-time predicate fallback and the IoSim page charges.
class ColumnarMirror {
 public:
  explicit ColumnarMirror(const Table& table);

  ColumnarMirror(const ColumnarMirror&) = delete;
  ColumnarMirror& operator=(const ColumnarMirror&) = delete;

  /// Points the mirror at the row store it was built from, once that table
  /// has reached its final address (the catalog entry). Call before the
  /// mirror is shared.
  void BindRowStore(const Table* table) { table_ = table; }

  /// The row store this mirror reflects; null until BindRowStore.
  const Table* table() const { return table_; }

  const Schema& schema() const { return schema_; }
  int64_t num_rows() const { return num_rows_; }
  int64_t num_granules() const {
    return static_cast<int64_t>(granules_.size());
  }
  const RowBatch& granule(int64_t g) const {
    return granules_[static_cast<size_t>(g)];
  }
  /// Every granule in table order; a scan result's ref source.
  const std::vector<RowBatch>& granules() const { return granules_; }

  /// First row and one-past-last row of granule `g` in the row store.
  int64_t GranuleBegin(int64_t g) const { return g * kZoneGranuleRows; }
  int64_t GranuleEnd(int64_t g) const {
    const int64_t end = (g + 1) * kZoneGranuleRows;
    return end < num_rows_ ? end : num_rows_;
  }

 private:
  Schema schema_;
  int64_t num_rows_ = 0;
  std::vector<RowBatch> granules_;
  const Table* table_ = nullptr;
};

}  // namespace nestra

#endif  // NESTRA_STORAGE_COLUMNAR_MIRROR_H_
