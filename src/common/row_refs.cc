#include "common/row_refs.h"

#include <utility>

namespace nestra {

RowRefs RowRefs::Identity(std::vector<RowBatch> batches, int num_columns) {
  RowRefs out;
  std::vector<uint64_t> refs;
  for (size_t b = 0; b < batches.size(); ++b) {
    for (int64_t r = 0; r < batches[b].num_rows(); ++r) {
      refs.push_back(PackRowRef(b, r));
    }
  }
  out.sources.push_back(
      std::make_shared<const std::vector<RowBatch>>(std::move(batches)));
  out.refs.push_back(std::move(refs));
  out.columns.reserve(static_cast<size_t>(num_columns));
  for (int c = 0; c < num_columns; ++c) out.columns.push_back({0, c});
  return out;
}

RefReader::RefReader(const RowRefs& rows) : rows_(&rows) {
  cols_.reserve(rows.columns.size());
  for (const RowRefs::Column& c : rows.columns) {
    cols_.emplace_back(*rows.sources[static_cast<size_t>(c.source)],
                       c.column);
  }
}

Row RefReader::MaterializeRow(int64_t ordinal) const {
  std::vector<Value> values;
  values.reserve(cols_.size());
  for (int c = 0; c < static_cast<int>(cols_.size()); ++c) {
    values.push_back(GetValue(c, ordinal));
  }
  return Row(std::move(values));
}

void RefReader::AppendRange(int c, int64_t begin, int64_t end,
                            ColumnVector* dst) const {
  const std::vector<uint64_t>& refs = rows_->refs[static_cast<size_t>(
      rows_->columns[static_cast<size_t>(c)].source)];
  dst->AppendRefs(cols_[static_cast<size_t>(c)], refs.data() + begin,
                  end - begin);
}

void RefReader::AppendRange(int64_t begin, int64_t end, RowBatch* out) const {
  for (int c = 0; c < static_cast<int>(cols_.size()); ++c) {
    AppendRange(c, begin, end, &out->column(c));
  }
}

void RefReader::Compose(int s, const uint64_t* ordinals, int64_t n) const {
  const std::vector<uint64_t>& refs = rows_->refs[static_cast<size_t>(s)];
  scratch_.resize(static_cast<size_t>(n));
  for (int64_t k = 0; k < n; ++k) {
    scratch_[static_cast<size_t>(k)] =
        ordinals[k] == kNullRef ? kNullRef
                                : refs[static_cast<size_t>(ordinals[k])];
  }
}

void RefReader::AppendAt(int c, const uint64_t* ordinals, int64_t n,
                         ColumnVector* dst) const {
  Compose(rows_->columns[static_cast<size_t>(c)].source, ordinals, n);
  dst->AppendRefs(cols_[static_cast<size_t>(c)], scratch_.data(), n);
}

void RefReader::AppendAt(const uint64_t* ordinals, int64_t n,
                         RowBatch* out) const {
  const int num_columns = static_cast<int>(cols_.size());
  for (int s = 0; s < static_cast<int>(rows_->sources.size()); ++s) {
    bool composed = false;
    for (int c = 0; c < num_columns; ++c) {
      if (rows_->columns[static_cast<size_t>(c)].source != s) continue;
      if (!composed) {
        Compose(s, ordinals, n);
        composed = true;
      }
      out->column(c).AppendRefs(cols_[static_cast<size_t>(c)],
                                scratch_.data(), n);
    }
  }
}

}  // namespace nestra
