#include "exec/filter.h"

#include <utility>

namespace nestra {

Status FilterNode::OpenImpl() {
  NESTRA_RETURN_NOT_OK(child_->Open());
  NESTRA_ASSIGN_OR_RETURN(
      bound_, BoundPredicate::Make(predicate_.get(), child_->output_schema()));
  vectorizable_ = VectorizedPredicate::Compile(
      predicate_.get(), child_->output_schema(), &vectorized_);
  return Status::OK();
}

Status FilterNode::NextImpl(Row* out, bool* eof) {
  while (true) {
    NESTRA_RETURN_NOT_OK(child_->Next(out, eof));
    if (*eof) return Status::OK();
    if (bound_.Matches(*out)) return Status::OK();
  }
}

Status FilterNode::NextBatchImpl(RowBatch* out, bool* eof) {
  if (!vectorizable_) return ExecNode::NextBatchImpl(out, eof);
  // Keep pulling child batches until some rows survive (or the child ends)
  // so empty batches never leak to the parent before eof.
  while (true) {
    bool child_eof = false;
    NESTRA_RETURN_NOT_OK(child_->NextBatch(&input_, &child_eof));
    if (child_eof) break;
    vectorized_.Select(input_, &sel_);
    if (sel_.empty()) continue;
    const int ncols = out->num_columns();
    // When every row survives, the input columns are the output.
    const bool all = static_cast<int64_t>(sel_.size()) == input_.num_rows();
    for (int c = 0; c < ncols; ++c) {
      if (all) {
        std::swap(out->column(c), input_.column(c));
      } else {
        out->column(c).AppendSelection(input_.column(c), sel_);
      }
    }
    out->set_num_rows(static_cast<int64_t>(sel_.size()));
    break;
  }
  *eof = out->empty();
  return Status::OK();
}

}  // namespace nestra
