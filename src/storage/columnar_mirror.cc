#include "storage/columnar_mirror.h"

namespace nestra {

ColumnarMirror::ColumnarMirror(const Table& table)
    : schema_(table.schema()), num_rows_(table.num_rows()) {
  const std::vector<Row>& rows = table.rows();
  granules_.resize(static_cast<size_t>(
      (num_rows_ + kZoneGranuleRows - 1) / kZoneGranuleRows));
  for (int64_t g = 0; g < num_granules(); ++g) {
    RowBatch& batch = granules_[static_cast<size_t>(g)];
    batch.Reset(schema_);
    for (int64_t i = GranuleBegin(g); i < GranuleEnd(g); ++i) {
      batch.AppendRow(rows[static_cast<size_t>(i)]);
    }
  }
}

}  // namespace nestra
