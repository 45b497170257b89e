#include "nested/fused_nest_select.h"

#include <algorithm>
#include <utility>

#include "common/check.h"

namespace nestra {

namespace {
// Value::Apply(op, lhs, cell `i` of `col`), comparing on the typed arrays
// when `lhs` has the column's storage class (int/date, double, string);
// a NaN ties with everything, as in Value::TotalOrderCompare.
TriBool ApplyToCell(CmpOp op, const Value& lhs, const KeyColumn& col,
                    uint32_t i) {
  if (lhs.is_null() || col.nulls[i] != 0) return TriBool::kUnknown;
  int c = 0;
  if (col.kind == KeyColumn::Kind::kInt && lhs.is_int()) {
    const int64_t x = lhs.int64();
    const int64_t y = col.ints[i];
    c = x < y ? -1 : (x > y ? 1 : 0);
  } else if (col.kind == KeyColumn::Kind::kFloat && lhs.is_float()) {
    const double x = lhs.float64();
    const double y = col.doubles[i];
    c = x < y ? -1 : (x > y ? 1 : 0);
  } else if (col.kind == KeyColumn::Kind::kString && lhs.is_string()) {
    c = lhs.string().compare(*col.strings[i]);
  } else if (col.kind == KeyColumn::Kind::kValue) {
    return Value::Apply(op, lhs, col.values[i]);
  } else {
    return Value::Apply(op, lhs, col.Get(i));  // cross-type
  }
  switch (op) {
    case CmpOp::kEq:
      return MakeTriBool(c == 0);
    case CmpOp::kNe:
      return MakeTriBool(c != 0);
    case CmpOp::kLt:
      return MakeTriBool(c < 0);
    case CmpOp::kLe:
      return MakeTriBool(c <= 0);
    case CmpOp::kGt:
      return MakeTriBool(c > 0);
    case CmpOp::kGe:
      return MakeTriBool(c >= 0);
  }
  return TriBool::kUnknown;
}
}  // namespace

FusedNestSelectNode::FusedNestSelectNode(ExecNodePtr child,
                                         std::vector<FusedLevelSpec> levels)
    : child_(std::move(child)), specs_(std::move(levels)) {
  // Output schema: the outermost level's nesting attributes. Resolution
  // errors surface at Open(); construct a best-effort schema here.
  const Schema& in = child_->output_schema();
  std::vector<Field> fields;
  if (!specs_.empty()) {
    for (const std::string& a : specs_[0].nesting_attrs) {
      const Result<int> idx = in.Resolve(a);
      fields.push_back(idx.ok() ? in.field(*idx) : Field(a, TypeId::kInt64));
    }
  }
  schema_ = Schema(std::move(fields));
}

FusedNestSelectNode::FusedNestSelectNode(std::unique_ptr<SortNode> sort,
                                         std::vector<FusedLevelSpec> levels)
    : FusedNestSelectNode(ExecNodePtr(std::move(sort)), std::move(levels)) {
  sort_ = static_cast<SortNode*>(child_.get());
}

Status FusedNestSelectNode::OpenImpl() {
  NESTRA_RETURN_NOT_OK(child_->Open());
  if (specs_.empty()) {
    return Status::InvalidArgument("FusedNestSelect requires >= 1 level");
  }
  const Schema& in = child_->output_schema();

  levels_.clear();
  levels_.resize(specs_.size());
  groups_closed_.assign(specs_.size(), 0);
  for (size_t i = 0; i < specs_.size(); ++i) {
    LevelState& st = levels_[i];
    for (const std::string& a : specs_[i].nesting_attrs) {
      NESTRA_ASSIGN_OR_RETURN(int idx, in.Resolve(a));
      st.key_idx.push_back(idx);
    }
    const LinkingPredicate& p = specs_[i].pred;
    NESTRA_ASSIGN_OR_RETURN(st.member_key_idx, in.Resolve(p.member_key_attr));
    if (p.kind == LinkingPredicate::Kind::kQuantified ||
        p.kind == LinkingPredicate::Kind::kAggregate) {
      if (!p.linking_is_const) {
        NESTRA_ASSIGN_OR_RETURN(st.linking_idx, in.Resolve(p.linking_attr));
      }
      if (!p.linked_attr.empty()) {  // empty for COUNT(*)
        NESTRA_ASSIGN_OR_RETURN(st.linked_idx, in.Resolve(p.linked_attr));
      }
    }
    st.acc = LinkingAccumulator(p);
    // Containment check: each level's keys must include the previous
    // level's keys (prefix property of §4.2.1).
    if (i > 0) {
      for (int k : levels_[i - 1].key_idx) {
        const bool found = std::find(st.key_idx.begin(), st.key_idx.end(),
                                     k) != st.key_idx.end();
        if (!found) {
          return Status::InvalidArgument(
              "FusedNestSelect: level " + std::to_string(i) +
              " nesting attributes do not contain level " +
              std::to_string(i - 1) + "'s");
        }
      }
    }
  }

  output_idx_ = levels_[0].key_idx;
  // Pad positions are indices into the OUTPUT row (level-0 prefix).
  for (const std::string& a : specs_[0].pad_attrs) {
    NESTRA_ASSIGN_OR_RETURN(int flat, in.Resolve(a));
    for (size_t k = 0; k < output_idx_.size(); ++k) {
      if (output_idx_[k] == flat) {
        levels_[0].pad_idx.push_back(static_cast<int>(k));
      }
    }
  }
  has_prev_ = false;
  input_done_ = false;
  pending_valid_ = false;
  run_ = nullptr;
  pos_ = 0;
  own_cols_.clear();
  return Status::OK();
}

void FusedNestSelectNode::OpenLevel(int i, const Row& row) {
  LevelState& st = levels_[i];
  st.rep = row;
  st.acc.Reset(st.linking_idx >= 0 ? row[st.linking_idx]
                                   : specs_[i].pred.linking_const);
}

bool FusedNestSelectNode::FinalizeLevel(int i) {
  LevelState& st = levels_[i];
  ++groups_closed_[i];
  const TriBool r = st.acc.Result();
  if (i == 0) {
    if (IsTrue(r)) {
      pending_ = st.rep.Select(output_idx_);
      pending_valid_ = true;
      return true;
    }
    if (specs_[0].mode == SelectionMode::kPseudo) {
      pending_ = st.rep.Select(output_idx_);
      for (int k : st.pad_idx) pending_[k] = Value::Null();
      pending_valid_ = true;
      return true;
    }
    return false;
  }
  // Contribute a member to the enclosing level. The member's key and linked
  // values are this group's constants, read from the representative row; a
  // failing group contributes nothing (see class comment).
  LevelState& parent = levels_[i - 1];
  if (IsTrue(r)) {
    parent.acc.Add(st.rep[parent.member_key_idx],
                   parent.linked_idx >= 0 ? st.rep[parent.linked_idx]
                                          : Value::Null());
  }
  return false;
}

Status FusedNestSelectNode::NextImpl(Row* out, bool* eof) {
  const int m = static_cast<int>(levels_.size());
  while (true) {
    if (pending_valid_) {
      *out = std::move(pending_);
      pending_valid_ = false;
      *eof = false;
      return Status::OK();
    }
    if (input_done_) {
      *eof = true;
      return Status::OK();
    }

    Row row;
    bool child_eof = false;
    NESTRA_RETURN_NOT_OK(child_->Next(&row, &child_eof));

    if (child_eof) {
      input_done_ = true;
      if (has_prev_) {
        // Close everything, innermost first.
        for (int i = m - 1; i >= 0; --i) FinalizeLevel(i);
      }
      continue;  // pending_ may now hold the last output
    }

    if (!has_prev_) {
      for (int i = 0; i < m; ++i) OpenLevel(i, row);
      // The innermost level's members are the stream rows themselves.
      LevelState& inner = levels_[m - 1];
      inner.acc.Add(row[inner.member_key_idx],
                    inner.linked_idx >= 0 ? row[inner.linked_idx]
                                          : Value::Null());
      prev_row_ = std::move(row);
      has_prev_ = true;
      continue;
    }

    // Outermost level whose group key changed.
    int boundary = m;  // m = no change anywhere
    for (int i = 0; i < m; ++i) {
      if (Row::CompareOn(prev_row_, row, levels_[i].key_idx) != 0) {
        boundary = i;
        break;
      }
    }
    if (boundary < m) {
      for (int i = m - 1; i >= boundary; --i) FinalizeLevel(i);
      for (int i = boundary; i < m; ++i) OpenLevel(i, row);
    }
    LevelState& inner = levels_[m - 1];
    inner.acc.Add(row[inner.member_key_idx],
                  inner.linked_idx >= 0 ? row[inner.linked_idx]
                                        : Value::Null());
    prev_row_ = std::move(row);
  }
}

void FusedNestSelectNode::CloseImpl() {
  // own_cols_ points into the sort's run, which Close frees.
  own_cols_.clear();
  run_ = nullptr;
  child_->Close();
}

const KeyColumn* FusedNestSelectNode::ColumnFor(int idx) {
  for (size_t k = 0; k < run_->key_indices.size(); ++k) {
    if (run_->key_indices[k] == idx) return &run_->keys[k];
  }
  auto [it, inserted] = own_cols_.try_emplace(idx);
  if (inserted) {
    it->second = GatherKeyColumn(sort_->reader(), idx,
                                 child_->output_schema().field(idx).type,
                                 /*ascending=*/true);
  }
  return &it->second;
}

void FusedNestSelectNode::BindRun() {
  run_ = &sort_->HandOff();
  for (size_t i = 0; i < levels_.size(); ++i) {
    LevelState& st = levels_[i];
    st.new_keys.clear();
    for (const int k : st.key_idx) {
      const bool outer_has =
          i > 0 && std::find(levels_[i - 1].key_idx.begin(),
                             levels_[i - 1].key_idx.end(),
                             k) != levels_[i - 1].key_idx.end();
      if (!outer_has) st.new_keys.push_back(ColumnFor(k));
    }
    st.linking_col = st.linking_idx >= 0 ? ColumnFor(st.linking_idx) : nullptr;
    st.linked_col = st.linked_idx >= 0 ? ColumnFor(st.linked_idx) : nullptr;
    st.member_key_col = ColumnFor(st.member_key_idx);
  }
}

void FusedNestSelectNode::OpenGroup(int i, size_t p) {
  LevelState& st = levels_[i];
  st.rep_pos = p;
  st.acc.Reset(st.linking_col != nullptr ? st.linking_col->Get(run_->perm[p])
                                         : specs_[i].pred.linking_const);
}

void FusedNestSelectNode::AddMember(int i, uint32_t ordinal) {
  LevelState& st = levels_[i];
  if (st.member_key_col->nulls[ordinal] != 0) return;  // padding
  const LinkingPredicate& pred = specs_[i].pred;
  if (pred.kind == LinkingPredicate::Kind::kQuantified &&
      st.linked_col != nullptr) {
    st.acc.AddComparison(
        ApplyToCell(pred.op, st.acc.linking_value(), *st.linked_col,
                    ordinal));
    return;
  }
  st.acc.AddMember(st.linked_col != nullptr ? st.linked_col->Get(ordinal)
                                            : Value::Null());
}

void FusedNestSelectNode::CloseGroup(int i) {
  LevelState& st = levels_[i];
  ++groups_closed_[i];
  const bool pass = IsTrue(st.acc.Result());
  if (i > 0) {
    if (pass) AddMember(i - 1, run_->perm[st.rep_pos]);
    return;
  }
  if (!pass && specs_[0].mode != SelectionMode::kPseudo) return;
  emit_ord_.push_back(run_->perm[st.rep_pos]);
  emit_pad_.push_back(pass ? 0 : 1);
}

void FusedNestSelectNode::StepPosition(size_t p) {
  const int m = static_cast<int>(levels_.size());
  const uint32_t cur = run_->perm[p];
  if (p == 0) {
    for (int i = 0; i < m; ++i) OpenGroup(i, p);
  } else {
    // Outermost level whose group key changed. The enclosing levels' keys
    // compared equal, so only each level's added keys need a compare.
    const uint32_t prev = run_->perm[p - 1];
    int boundary = m;
    for (int i = 0; i < m && boundary == m; ++i) {
      for (const KeyColumn* key : levels_[i].new_keys) {
        if (key->Compare(prev, cur) != 0) {
          boundary = i;
          break;
        }
      }
    }
    if (boundary < m) {
      for (int i = m - 1; i >= boundary; --i) CloseGroup(i);
      for (int i = boundary; i < m; ++i) OpenGroup(i, p);
    }
  }
  // The innermost level's members are the stream rows themselves.
  AddMember(m - 1, cur);
}

void FusedNestSelectNode::EmitGroups(RowBatch* out) {
  const int64_t g = static_cast<int64_t>(emit_ord_.size());
  if (g == 0) return;
  const std::vector<int>& pads = levels_[0].pad_idx;
  for (int k = 0; k < static_cast<int>(output_idx_.size()); ++k) {
    const uint64_t* ords = emit_ord_.data();
    if (std::find(pads.begin(), pads.end(), k) != pads.end()) {
      pad_ords_ = emit_ord_;
      for (size_t j = 0; j < pad_ords_.size(); ++j) {
        if (emit_pad_[j] != 0) pad_ords_[j] = kNullRef;
      }
      ords = pad_ords_.data();
    }
    sort_->reader().AppendAt(output_idx_[k], ords, g, &out->column(k));
  }
  out->set_num_rows(out->num_rows() + g);
  emit_ord_.clear();
  emit_pad_.clear();
}

Status FusedNestSelectNode::NextBatchImpl(RowBatch* out, bool* eof) {
  if (sort_ == nullptr) return ExecNode::NextBatchImpl(out, eof);
  if (run_ == nullptr) BindRun();
  const size_t n = run_->perm.size();
  // One window of the permutation per round until a round emits.
  while (out->empty() && !input_done_) {
    if (pos_ == n) {
      input_done_ = true;
      if (n > 0) {
        for (int i = static_cast<int>(levels_.size()) - 1; i >= 0; --i) {
          CloseGroup(i);
        }
      }
    } else {
      const size_t end =
          std::min(n, pos_ + static_cast<size_t>(RowBatch::kDefaultCapacity));
      for (; pos_ < end; ++pos_) StepPosition(pos_);
    }
    EmitGroups(out);
  }
  *eof = out->empty();
  return Status::OK();
}

std::string FusedNestSelectNode::detail() const {
  std::string d = "levels=" + std::to_string(specs_.size()) + " groups=[";
  for (size_t i = 0; i < groups_closed_.size(); ++i) {
    if (i > 0) d += ',';
    d += std::to_string(groups_closed_[i]);
  }
  d += ']';
  return d;
}

}  // namespace nestra
