#include "nra/rewrites.h"

#include <unordered_map>

#include "common/hash_key.h"
#include "common/thread_pool.h"
#include "exec/distinct.h"
#include "exec/hash_join.h"
#include "exec/project.h"
#include "nested/linking_predicate.h"
#include "nra/planner.h"

namespace nestra {

Result<Table> HashLinkSelect(Table outer, const Table& inner,
                             const std::vector<std::string>& outer_key_cols,
                             const std::vector<std::string>& inner_key_cols,
                             const QueryBlock& child, SelectionMode mode,
                             const std::vector<std::string>& pad_attrs,
                             int num_threads) {
  const Schema& os = outer.schema();
  const Schema& is = inner.schema();

  std::vector<int> okeys, ikeys;
  for (const std::string& c : outer_key_cols) {
    NESTRA_ASSIGN_OR_RETURN(int idx, os.Resolve(c));
    okeys.push_back(idx);
  }
  for (const std::string& c : inner_key_cols) {
    NESTRA_ASSIGN_OR_RETURN(int idx, is.Resolve(c));
    ikeys.push_back(idx);
  }

  const LinkingPredicate pred = child.MakeLinkPredicate(/*group_name=*/"g");
  int linking_idx = -1;
  int linked_idx = -1;
  NESTRA_ASSIGN_OR_RETURN(int member_key_idx, is.Resolve(child.key_attr));
  if (pred.kind == LinkingPredicate::Kind::kQuantified ||
      pred.kind == LinkingPredicate::Kind::kAggregate) {
    if (!pred.linking_is_const) {
      NESTRA_ASSIGN_OR_RETURN(linking_idx, os.Resolve(pred.linking_attr));
    }
    if (!pred.linked_attr.empty()) {
      NESTRA_ASSIGN_OR_RETURN(linked_idx, is.Resolve(pred.linked_attr));
    }
  }

  std::vector<int> pad_idx;
  if (mode == SelectionMode::kPseudo) {
    for (const std::string& a : pad_attrs) {
      NESTRA_ASSIGN_OR_RETURN(int idx, os.Resolve(a));
      pad_idx.push_back(idx);
    }
  }

  // The pushed-down nest: group the inner relation by its correlation key,
  // keeping only (member key, linked value) — the implicit projection of
  // Definition 3.
  struct Member {
    Value key;
    Value linked;
  };
  std::unordered_map<std::vector<Value>, std::vector<Member>, SqlValueKeyHash,
                     SqlValueKeyEq>
      groups;
  // Sized for the worst case (every inner row its own group) up front: one
  // allocation instead of log(n) rehashes of Value-vector keys.
  groups.max_load_factor(0.7F);
  groups.reserve(inner.rows().size());
  for (const Row& r : inner.rows()) {
    std::vector<Value> key;
    key.reserve(ikeys.size());
    bool has_null = false;
    for (int idx : ikeys) {
      if (r[idx].is_null()) has_null = true;
      key.push_back(r[idx]);
    }
    if (has_null) continue;  // can never equal-match an outer key
    groups[std::move(key)].push_back(
        {r[member_key_idx],
         linked_idx >= 0 ? r[linked_idx] : Value::Null()});
  }

  std::vector<Field> fields = outer.schema().fields();
  for (int i : pad_idx) fields[i].nullable = true;
  Table out{Schema(std::move(fields))};
  out.Reserve(outer.rows().size());

  // Per-outer-row evaluation in row-range morsels against the read-only
  // group table. Each morsel owns its accumulator and output slot; slots
  // concatenated in morsel order reproduce the serial output exactly.
  static const std::vector<Member> kEmpty;
  const int64_t n = static_cast<int64_t>(outer.rows().size());
  std::vector<std::vector<Row>> slots(
      static_cast<size_t>(MorselCount(n, num_threads)));
  ParallelForMorsels(n, num_threads, [&](int64_t morsel, int64_t begin,
                                         int64_t end) {
    std::vector<Row>& slot = slots[static_cast<size_t>(morsel)];
    LinkingAccumulator acc(pred);
    std::vector<Value> key;  // reused across rows; find() never keeps it
    key.reserve(okeys.size());
    for (int64_t i = begin; i < end; ++i) {
      Row& r = outer.rows()[static_cast<size_t>(i)];
      const std::vector<Member>* members = &kEmpty;
      bool probe_null = false;
      key.clear();
      for (int idx : okeys) {
        if (r[idx].is_null()) probe_null = true;
        key.push_back(r[idx]);
      }
      if (!probe_null) {
        const auto it = groups.find(key);
        if (it != groups.end()) members = &it->second;
      }
      acc.Reset(linking_idx >= 0 ? r[linking_idx] : pred.linking_const);
      for (const Member& m : *members) {
        acc.Add(m.key, m.linked);
        if (acc.Decided()) break;
      }
      if (IsTrue(acc.Result())) {
        slot.push_back(std::move(r));
      } else if (mode == SelectionMode::kPseudo) {
        for (int i : pad_idx) r[i] = Value::Null();
        slot.push_back(std::move(r));
      }
    }
  });
  for (std::vector<Row>& slot : slots) {
    for (Row& r : slot) out.AppendUnchecked(std::move(r));
  }
  return out;
}

Result<ExprPtr> PositiveLinkJoinCondition(const QueryBlock& child) {
  switch (child.link_op) {
    case LinkOp::kExists:
      return ExprPtr(nullptr);
    case LinkOp::kIn:
      return Cmp(CmpOp::kEq, child.LinkingExpr(), Col(child.linked_attr));
    case LinkOp::kSome:
      return Cmp(child.link_cmp, child.LinkingExpr(),
                 Col(child.linked_attr));
    case LinkOp::kNotExists:
    case LinkOp::kNotIn:
    case LinkOp::kAll:
      return Status::InvalidArgument(
          "positive-link rewrite requested for negative operator " +
          std::string(LinkOpToString(child.link_op)));
  }
  return Status::Internal("unreachable");
}

Result<ExprPtr> AntiLinkJoinCondition(const QueryBlock& child) {
  // The comparison negation (¬θ), not the operand swap of FlipCmpOp.
  const auto negate = [](CmpOp op) {
    switch (op) {
      case CmpOp::kEq:
        return CmpOp::kNe;
      case CmpOp::kNe:
        return CmpOp::kEq;
      case CmpOp::kLt:
        return CmpOp::kGe;
      case CmpOp::kLe:
        return CmpOp::kGt;
      case CmpOp::kGt:
        return CmpOp::kLe;
      case CmpOp::kGe:
        return CmpOp::kLt;
    }
    return CmpOp::kEq;
  };
  switch (child.link_op) {
    case LinkOp::kNotExists:
      return ExprPtr(nullptr);
    case LinkOp::kNotIn:
      return Cmp(CmpOp::kEq, child.LinkingExpr(), Col(child.linked_attr));
    case LinkOp::kAll:
      // A θ ALL {B} fails exactly on a member with A ¬θ B (two-valued
      // comparison assumed; the empty set passes both sides).
      return Cmp(negate(child.link_cmp), child.LinkingExpr(),
                 Col(child.linked_attr));
    case LinkOp::kExists:
    case LinkOp::kIn:
    case LinkOp::kSome:
      return Status::InvalidArgument(
          "anti-link rewrite requested for positive operator " +
          std::string(LinkOpToString(child.link_op)));
  }
  return Status::Internal("unreachable");
}

Result<Table> MagicRestrict(const Table& outer, Table child_base,
                            const QueryBlock& child) {
  std::vector<std::string> okeys, ikeys;
  if (!AllEquiCorrelation(child, outer.schema(), child_base.schema(), &okeys,
                          &ikeys)) {
    return child_base;
  }
  // Magic set: the distinct correlation-key combinations of the outer.
  ExecNodePtr magic = std::make_unique<ProjectNode>(
      std::make_unique<TableSourceNode>(outer), okeys);
  magic = std::make_unique<DistinctNode>(std::move(magic));

  std::vector<EquiPair> equi;
  for (size_t i = 0; i < ikeys.size(); ++i) equi.push_back({ikeys[i], okeys[i]});
  HashJoinNode semi(std::make_unique<TableSourceNode>(std::move(child_base)),
                    std::move(magic), JoinType::kLeftSemi, std::move(equi),
                    nullptr);
  return CollectTable(&semi);
}

}  // namespace nestra
