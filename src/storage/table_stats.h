#ifndef NESTRA_STORAGE_TABLE_STATS_H_
#define NESTRA_STORAGE_TABLE_STATS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/table.h"

namespace nestra {

/// Rows per zone-map granule. Matches RowBatch::kDefaultCapacity (1024) and
/// is a whole number of IoSim pages (64 rows/page -> 16 pages), so skipping
/// a granule skips exactly its pages and a kept granule charges the same
/// SeqRange the unpruned vectorized scan would.
inline constexpr int64_t kZoneGranuleRows = 1024;

/// \brief Per-column summary collected once at Catalog::RegisterTable.
///
/// Numeric columns (int64 / float64 / date) carry a [min, max] range over
/// their non-NULL values; string columns only carry null / distinct counts.
/// `distinct` is exact for small columns and a deterministic HyperLogLog
/// estimate beyond that — no RNG, no clock (see lint check 1): the sketch
/// hashes values with a fixed mixer.
struct ColumnStats {
  int64_t null_count = 0;
  int64_t non_null_count = 0;

  /// True when at least one non-NULL value was seen and every non-NULL
  /// value was numeric; `min`/`max` are their double images.
  bool has_range = false;
  double min = 0.0;
  double max = 0.0;

  /// True when every non-NULL value held an int64 (dates included). Then
  /// `min_i64`/`max_i64` are the exact integer range — what the perfect
  /// (dense-array) hash join keys on.
  bool integer_only = false;
  int64_t min_i64 = 0;
  int64_t max_i64 = 0;

  /// Distinct non-NULL values (SQL key equality: int 1 == float 1.0).
  int64_t distinct = 0;
  bool distinct_exact = false;
};

/// \brief Per-granule min/max entry of one column.
struct ZoneEntry {
  bool all_null = true;    // the granule holds no non-NULL value
  bool has_range = false;  // >=1 non-NULL numeric value; min/max valid
  double min = 0.0;
  double max = 0.0;
};

/// \brief Zone map of a table: per-column min/max at kZoneGranuleRows
/// granularity, granule-major.
struct TableZoneMap {
  int64_t num_granules = 0;
  int num_columns = 0;
  std::vector<ZoneEntry> entries;  // entries[g * num_columns + c]

  const ZoneEntry& At(int64_t granule, int column) const {
    return entries[static_cast<size_t>(granule * num_columns + column)];
  }
};

/// \brief Everything the planner knows about a base table's data. Collected
/// once at registration (tables are immutable afterwards) and invalidated
/// with the entry by the TableVersion mechanism: a re-registered table gets
/// fresh stats and a new version, so prepared plans that baked in stats
/// decisions fail stale instead of running on the old numbers.
struct TableStats {
  int64_t row_count = 0;
  std::vector<ColumnStats> columns;  // schema order
  TableZoneMap zones;

  std::string ToString() const;  // one line per column, for \stats and tests
};

class ColumnarMirror;

/// Collects null counts, numeric min/max, distinct estimates and the zone
/// map column by column from the mirror's typed granule arrays.
/// Deterministic — same table, same stats.
TableStats CollectTableStats(const ColumnarMirror& mirror);

/// Same stats for a bare table (builds a temporary mirror first).
TableStats CollectTableStats(const Table& table);

}  // namespace nestra

#endif  // NESTRA_STORAGE_TABLE_STATS_H_
