#include "common/table.h"

#include <algorithm>
#include <utility>

#include "common/pretty_print.h"

namespace nestra {

Table::Table(Schema schema, RowRefs refs) : schema_(std::move(schema)) {
  if (refs.num_rows() > 0) refs_ = std::move(refs);
}

RowRefs Table::TakeRefs() {
  if (referenced()) return std::exchange(refs_, RowRefs());
  if (batches_.empty()) {
    std::vector<RowBatch> packed;
    for (size_t i = 0; i < rows_.size(); ++i) {
      if (i % RowBatch::kDefaultCapacity == 0) {
        packed.emplace_back().Reset(schema_);
      }
      packed.back().AppendRow(rows_[i]);
    }
    return RowRefs::Identity(std::move(packed), schema_.num_fields());
  }
  return RowRefs::Identity(std::exchange(batches_, {}), schema_.num_fields());
}

void Table::MaterializeRefs() const {
  const RefReader reader(refs_);
  const int64_t n = refs_.num_rows();
  for (int64_t begin = 0; begin < n; begin += RowBatch::kDefaultCapacity) {
    const int64_t end = std::min(n, begin + RowBatch::kDefaultCapacity);
    RowBatch batch;
    batch.Reset(schema_);
    reader.AppendRange(begin, end, &batch);
    batch.set_num_rows(end - begin);
    batches_.push_back(std::move(batch));
  }
  refs_ = RowRefs();
}

void Table::AppendBatch(RowBatch batch) {
  if (batch.empty()) return;
  if (referenced()) MaterializeRefs();
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
