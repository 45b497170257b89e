#ifndef NESTRA_EXEC_PROJECT_H_
#define NESTRA_EXEC_PROJECT_H_

#include <string>
#include <vector>

#include "exec/exec_node.h"

namespace nestra {

/// \brief Column projection (and optional renaming). No expression
/// projection is needed anywhere in the paper's plans.
class ProjectNode final : public ExecNode {
 public:
  /// `columns` are resolved against the child schema (exact or unqualified).
  /// `output_names`, if non-empty, renames positionally and must match
  /// `columns` in length.
  ProjectNode(ExecNodePtr child, std::vector<std::string> columns,
              std::vector<std::string> output_names = {});

  const Schema& output_schema() const override { return schema_; }
  std::string name() const override { return "Project"; }
  std::vector<ExecNode*> children() const override { return {child_.get()}; }

 protected:
  Status OpenImpl() override;
  Status NextImpl(Row* out, bool* eof) override;
  Status NextBatchImpl(RowBatch* out, bool* eof) override;
  void CloseImpl() override { child_->Close(); }

 private:
  ExecNodePtr child_;
  std::vector<std::string> columns_;
  std::vector<std::string> output_names_;
  std::vector<int> indices_;
  // last_use_[c]: no later output column reads input column indices_[c],
  // so NextBatch moves that column instead of copying it.
  std::vector<bool> last_use_;
  Schema schema_;
  RowBatch input_;
};

}  // namespace nestra

#endif  // NESTRA_EXEC_PROJECT_H_
