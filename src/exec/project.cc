#include "exec/project.h"

#include <utility>

namespace nestra {

ProjectNode::ProjectNode(ExecNodePtr child, std::vector<std::string> columns,
                         std::vector<std::string> output_names)
    : child_(std::move(child)),
      columns_(std::move(columns)),
      output_names_(std::move(output_names)) {}

Status ProjectNode::OpenImpl() {
  NESTRA_RETURN_NOT_OK(child_->Open());
  if (!output_names_.empty() && output_names_.size() != columns_.size()) {
    return Status::InvalidArgument(
        "projection rename list length mismatches column list");
  }
  const Schema& in = child_->output_schema();
  indices_.clear();
  std::vector<Field> fields;
  for (size_t i = 0; i < columns_.size(); ++i) {
    NESTRA_ASSIGN_OR_RETURN(int idx, in.Resolve(columns_[i]));
    indices_.push_back(idx);
    Field f = in.field(idx);
    if (!output_names_.empty()) f.name = output_names_[i];
    fields.push_back(std::move(f));
  }
  schema_ = Schema(std::move(fields));
  // An input column is handed over to the last output column that reads
  // it; earlier duplicates copy it.
  last_use_.assign(indices_.size(), true);
  for (size_t i = 0; i < indices_.size(); ++i) {
    for (size_t j = i + 1; j < indices_.size(); ++j) {
      if (indices_[j] == indices_[i]) last_use_[i] = false;
    }
  }
  return Status::OK();
}

Status ProjectNode::NextImpl(Row* out, bool* eof) {
  Row in;
  NESTRA_RETURN_NOT_OK(child_->Next(&in, eof));
  if (*eof) return Status::OK();
  *out = in.Select(indices_);
  return Status::OK();
}

Status ProjectNode::NextBatchImpl(RowBatch* out, bool* eof) {
  bool child_eof = false;
  NESTRA_RETURN_NOT_OK(child_->NextBatch(&input_, &child_eof));
  if (child_eof) {
    *eof = true;
    return Status::OK();
  }
  const int64_t n = input_.num_rows();
  for (size_t c = 0; c < indices_.size(); ++c) {
    ColumnVector& in = input_.column(indices_[c]);
    ColumnVector& dst = out->column(static_cast<int>(c));
    if (last_use_[c]) {
      std::swap(dst, in);
    } else {
      dst = in;
    }
  }
  out->set_num_rows(n);
  *eof = out->empty();
  return Status::OK();
}

}  // namespace nestra
