#include "baseline/count_rewrite.h"

#include "exec/aggregate.h"
#include "exec/distinct.h"
#include "exec/filter.h"
#include "exec/hash_join.h"
#include "exec/project.h"
#include "nra/planner.h"

namespace nestra {

std::string AggRewriteApplicable(const QueryBlock& root) {
  if (root.children.size() != 1) {
    return "aggregate rewrite handles exactly one subquery";
  }
  const QueryBlock& child = *root.children[0];
  if (!child.IsLeaf()) return "subquery must be flat";
  if (child.link_op != LinkOp::kAll) {
    return "aggregate rewrite targets theta-ALL subqueries";
  }
  switch (child.link_cmp) {
    case CmpOp::kLt:
    case CmpOp::kLe:
    case CmpOp::kGt:
    case CmpOp::kGe:
      break;
    default:
      return "theta must be an inequality (<, <=, >, >=) for the MIN/MAX "
             "rewrite";
  }
  if (child.correlated_preds.empty()) {
    return "subquery must be equality-correlated";
  }
  return "";
}

Result<Table> ExecuteAggRewrite(const QueryBlock& root,
                                const Catalog& catalog) {
  const std::string why_not = AggRewriteApplicable(root);
  if (!why_not.empty()) return Status::InvalidArgument(why_not);
  const QueryBlock& child = *root.children[0];

  NESTRA_ASSIGN_OR_RETURN(Table outer,
                          EvalBlockBase(root, catalog, root.attributes));
  NESTRA_ASSIGN_OR_RETURN(Table inner,
                          EvalBlockBase(child, catalog, child.attributes));

  std::vector<std::string> okeys, ikeys;
  if (!AllEquiCorrelation(child, outer.schema(), inner.schema(), &okeys,
                          &ikeys)) {
    return Status::InvalidArgument(
        "aggregate rewrite requires pure equality correlation");
  }

  // Group the inner relation by the correlation key, computing the extreme
  // of the linked attribute. MAX for > / >=, MIN for < / <=. COUNT(*)
  // detects the empty-group case after the outer join.
  const AggFunc func = (child.link_cmp == CmpOp::kGt ||
                        child.link_cmp == CmpOp::kGe)
                           ? AggFunc::kMax
                           : AggFunc::kMin;
  std::vector<AggSpec> aggs;
  aggs.push_back({func, child.linked_attr, "agg_val"});
  aggs.push_back({AggFunc::kCountStar, "", "agg_cnt"});
  auto agg = std::make_unique<AggregateNode>(
      std::make_unique<TableSourceNode>(std::move(inner)), ikeys,
      std::move(aggs));

  std::vector<EquiPair> equi;
  for (size_t i = 0; i < okeys.size(); ++i) equi.push_back({okeys[i], ikeys[i]});
  ExecNodePtr node = std::make_unique<HashJoinNode>(
      std::make_unique<TableSourceNode>(std::move(outer)), std::move(agg),
      JoinType::kLeftOuter, std::move(equi), nullptr);

  // Qualify when the group was empty (no aggregate row joined) or the
  // comparison against the extreme holds. This is where the NULL bug lives:
  // MIN/MAX silently ignore NULL members.
  std::vector<ExprPtr> disjuncts;
  disjuncts.push_back(IsNull(Col("agg_cnt")));
  disjuncts.push_back(
      Cmp(child.link_cmp, Col(child.linking_attr), Col("agg_val")));
  node = std::make_unique<FilterNode>(std::move(node),
                                      MakeOr(std::move(disjuncts)));
  NESTRA_ASSIGN_OR_RETURN(Table filtered, CollectTable(node.get()));
  return FinalizeRootOutput(root, std::move(filtered));
}

}  // namespace nestra
