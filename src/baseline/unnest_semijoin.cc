#include "baseline/unnest_semijoin.h"

#include "exec/distinct.h"
#include "exec/project.h"
#include "nra/planner.h"
#include "nra/rewrites.h"

namespace nestra {

namespace {

// Finds the block owning the alias of a qualified attribute.
const QueryBlock* FindOwner(const QueryBlock& block, const std::string& attr) {
  const std::string alias = attr.substr(0, attr.find('.'));
  for (const QueryBlock::TableRef& t : block.tables) {
    if (t.alias == alias) return &block;
  }
  for (const auto& c : block.children) {
    const QueryBlock* found = FindOwner(*c, attr);
    if (found != nullptr) return found;
  }
  return nullptr;
}

}  // namespace

bool SemiAntiUnnester::IsAttrNotNull(const QueryBlock& root,
                                     const std::string& attr) const {
  const QueryBlock* owner = FindOwner(root, attr);
  if (owner == nullptr) return false;
  const std::string alias = attr.substr(0, attr.find('.'));
  for (const QueryBlock::TableRef& t : owner->tables) {
    if (t.alias == alias) {
      return catalog_.IsNotNull(t.table, UnqualifiedName(attr));
    }
  }
  return false;
}

std::string SemiAntiUnnester::CheckApplicable(const QueryBlock& root) const {
  if (root.children.empty()) return "";  // flat query: trivially fine
  if (!root.IsLinear()) {
    return "tree query: the semijoin/antijoin pipeline handles only linear "
           "nesting";
  }
  const Result<std::vector<const QueryBlock*>> chain = LinearChain(root);
  if (!chain.ok()) return chain.status().message();
  // Structural blockers first (they are what fundamentally rules the
  // pipeline out); constraint-dependent blockers second.
  for (size_t k = 1; k < chain->size(); ++k) {
    const QueryBlock& b = *(*chain)[k];
    const int parent_id = (*chain)[k - 1]->id;
    for (int ref : b.correlated_block_ids) {
      if (ref != parent_id) {
        return "block " + std::to_string(b.id) +
               " is correlated to non-adjacent block " + std::to_string(ref) +
               ": semijoin/antijoin keeps only one table's information";
      }
    }
  }
  for (size_t k = 1; k < chain->size(); ++k) {
    const QueryBlock& b = *(*chain)[k];
    if (b.is_aggregate_link) {
      return "scalar aggregate subqueries cannot be unnested with "
             "semijoin/antijoin";
    }
    if (b.link_op == LinkOp::kAll || b.link_op == LinkOp::kNotIn) {
      if (!IsAttrNotNull(root, b.linked_attr)) {
        return "antijoin for " + std::string(LinkOpToString(b.link_op)) +
               " requires a NOT NULL constraint on " + b.linked_attr;
      }
      const bool linking_not_null = b.linking_is_const
                                        ? !b.linking_const.is_null()
                                        : IsAttrNotNull(root, b.linking_attr);
      if (!linking_not_null) {
        return "antijoin for " + std::string(LinkOpToString(b.link_op)) +
               " requires a NOT NULL constraint on " + b.linking_attr;
      }
    }
  }
  return "";
}

Result<Table> SemiAntiUnnester::Execute(const QueryBlock& root) {
  const std::string why_not = CheckApplicable(root);
  if (!why_not.empty()) return Status::InvalidArgument(why_not);

  NESTRA_ASSIGN_OR_RETURN(std::vector<const QueryBlock*> chain,
                          LinearChain(root));
  const int n = static_cast<int>(chain.size());

  NESTRA_ASSIGN_OR_RETURN(
      Table cur,
      EvalBlockBase(*chain[n - 1], catalog_, chain[n - 1]->attributes));
  for (int k = n - 2; k >= 0; --k) {
    const QueryBlock& child = *chain[k + 1];
    NESTRA_ASSIGN_OR_RETURN(
        Table left, EvalBlockBase(*chain[k], catalog_, chain[k]->attributes));

    JoinType join_type = JoinType::kLeftSemi;
    ExprPtr extra;
    switch (child.link_op) {
      case LinkOp::kExists:
      case LinkOp::kIn:
      case LinkOp::kSome: {
        join_type = JoinType::kLeftSemi;
        NESTRA_ASSIGN_OR_RETURN(extra, PositiveLinkJoinCondition(child));
        break;
      }
      case LinkOp::kNotExists:
        join_type = JoinType::kLeftAnti;
        break;
      case LinkOp::kNotIn:
        join_type = JoinType::kLeftAnti;
        extra = Cmp(CmpOp::kEq, child.LinkingExpr(), Col(child.linked_attr));
        break;
      case LinkOp::kAll:
        // A theta ALL S  ==  NOT (A anti-theta SOME S) under the NOT NULL
        // preconditions verified above.
        join_type = JoinType::kLeftAnti;
        extra = Cmp(NegateCmpOp(child.link_cmp), child.LinkingExpr(),
                    Col(child.linked_attr));
        break;
    }
    NESTRA_ASSIGN_OR_RETURN(cur,
                            JoinWithChild(std::move(left), std::move(cur),
                                          child, join_type, std::move(extra)));
  }

  return FinalizeRootOutput(root, std::move(cur));
}

}  // namespace nestra
