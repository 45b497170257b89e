#include "common/table.h"

#include <algorithm>

#include "common/pretty_print.h"

namespace nestra {

void Table::AppendBatch(RowBatch batch) {
  if (batch.empty()) return;
  if (!rows_.empty()) {
    for (int64_t i = 0; i < batch.num_rows(); ++i) {
      rows_.push_back(batch.TakeRow(i));
    }
    return;
  }
  batches_.push_back(std::move(batch));
}

void Table::Materialize() const {
  rows_.reserve(static_cast<size_t>(num_rows()));
  for (RowBatch& batch : batches_) {
    for (int64_t i = 0; i < batch.num_rows(); ++i) {
      rows_.push_back(batch.TakeRow(i));
    }
  }
  batches_.clear();
}

Status Table::Append(Row row) {
  if (row.size() != schema_.num_fields()) {
    return Status::InvalidArgument(
        "row arity " + std::to_string(row.size()) +
        " does not match schema arity " +
        std::to_string(schema_.num_fields()));
  }
  rows().push_back(std::move(row));
  return Status::OK();
}

Result<Table> Table::Project(const std::vector<std::string>& columns) const {
  std::vector<int> indices;
  indices.reserve(columns.size());
  for (const std::string& c : columns) {
    NESTRA_ASSIGN_OR_RETURN(int idx, schema_.Resolve(c));
    indices.push_back(idx);
  }
  Table out(schema_.Select(indices));
  out.Reserve(rows().size());
  for (const Row& r : rows()) out.AppendUnchecked(r.Select(indices));
  return out;
}

Table Table::Sorted() const {
  Table out(schema_, rows());
  std::sort(out.rows_.begin(), out.rows_.end(),
            [](const Row& a, const Row& b) { return Row::Compare(a, b) < 0; });
  return out;
}

bool Table::BagEquals(const Table& a, const Table& b) {
  if (a.num_rows() != b.num_rows()) return false;
  if (a.schema().num_fields() != b.schema().num_fields()) return false;
  const Table sa = a.Sorted();
  const Table sb = b.Sorted();
  return sa.rows() == sb.rows();
}

std::string Table::ToString(int max_rows) const {
  return PrettyPrintTable(*this, max_rows);
}

}  // namespace nestra
