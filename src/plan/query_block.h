#ifndef NESTRA_PLAN_QUERY_BLOCK_H_
#define NESTRA_PLAN_QUERY_BLOCK_H_

#include <memory>
#include <string>
#include <vector>

#include "expr/expr.h"
#include "nested/linking_predicate.h"

namespace nestra {

/// \brief The bound intermediate representation of one SQL query block,
/// using the paper's terminology: per block i we keep the FROM relations
/// R_i, the non-linking non-correlated WHERE conjuncts σ_i, the correlated
/// predicates C_ij, and the linking predicate L_{i-1} connecting it to its
/// parent. All column names are fully qualified as "alias.column".
struct QueryBlock {
  struct TableRef {
    std::string table;  // catalog name
    std::string alias;  // unique across the whole query
  };

  /// 1-based, depth-first left-to-right order (the paper numbers blocks
  /// top-down; the root is block 1).
  int id = 0;

  std::vector<TableRef> tables;

  /// σ_i: conjunction referencing only this block (includes intra-block join
  /// predicates when the FROM clause has several tables). May be null (TRUE).
  ExprPtr local_pred;

  /// C_ij: each conjunct references at least one ancestor block (and usually
  /// this block). Evaluated as the (outer) join condition when the plan
  /// connects this block to the accumulated outer relation.
  std::vector<ExprPtr> correlated_preds;

  // --- Linking predicate L (unused for the root block) ---
  LinkOp link_op = LinkOp::kExists;
  CmpOp link_cmp = CmpOp::kEq;     // for theta SOME / theta ALL / aggregates
  std::string linking_attr;        // qualified column of an ancestor block
  /// SQL allows a constant on the outer side ("0 = (select count(*)...)");
  /// when set, linking_attr is empty.
  bool linking_is_const = false;
  Value linking_const;
  std::string linked_attr;         // qualified column of this block (the
                                   // subquery's single select item; empty
                                   // for COUNT(*) aggregate links)
  /// Scalar-aggregate link `A θ (SELECT agg(B) ...)` — the framework's
  /// extension beyond the paper's six operators. When set, link_op is
  /// ignored and `agg`/`link_cmp` describe the predicate.
  bool is_aggregate_link = false;
  LinkAgg agg = LinkAgg::kCount;
  /// Non-aggregate scalar link `A θ (SELECT B ...)`: bound as `A θ SOME`
  /// (equivalent in conjunct position when the subquery yields at most one
  /// row — an empty set makes the SQL comparison UNKNOWN and SOME FALSE,
  /// both dropping the tuple). The verifier's scalar-card rule rejects the
  /// plan unless the at-most-one bound is statically provable.
  bool is_scalar_link = false;

  // --- Root block only ---
  struct OrderItem {
    std::string column;  // qualified (or an aggregate output name)
    bool ascending = true;
  };
  /// One aggregate computed by a grouped root query. `output_name` is the
  /// canonical "agg(qualified.column)" spelling and names the output field.
  struct RootAgg {
    LinkAgg func = LinkAgg::kCount;
    std::string column;  // qualified; empty for COUNT(*)
    std::string output_name;
  };
  /// Output columns: qualified attribute names, or aggregate output names
  /// for grouped queries.
  std::vector<std::string> select_list;
  bool distinct = false;
  std::vector<std::string> group_by;  // qualified; root only
  std::vector<RootAgg> aggregates;    // root only
  ExprPtr having;  // over the post-aggregation schema; may be null
  std::vector<OrderItem> order_by;
  int64_t limit = -1;  // -1 = no limit

  /// True when the root applies grouping/aggregation after the WHERE phase.
  bool IsGrouped() const { return !aggregates.empty() || !group_by.empty(); }

  std::vector<std::unique_ptr<QueryBlock>> children;

  // --- Derived metadata (filled by the binder) ---
  /// The block's unique non-NULL attribute (the first table's primary key,
  /// qualified) used for emptiness detection after outer joins.
  std::string key_attr;
  /// Every qualified column of this block's tables, in schema order.
  std::vector<std::string> attributes;
  /// The columns the block carries past its base evaluation: the subsequence
  /// of `attributes` that anything after the scan reads (correlated
  /// predicates of the block and its descendants, linking / linked / key
  /// attributes, and at the root the select list, grouping, aggregate,
  /// ORDER BY and HAVING columns), plus every FROM table's primary key in a
  /// multi-table block (a keyless table keeps all its columns). Local
  /// predicates run before the projection and do not count. The base scan
  /// projects to this list, and every nest, pad and sort set reads it.
  std::vector<std::string> carried;
  /// Ids of the ancestor blocks referenced by correlated_preds (empty for a
  /// non-correlated subquery).
  std::vector<int> correlated_block_ids;

  bool IsLeaf() const { return children.empty(); }
  bool IsRoot() const { return id == 1; }

  /// True when this block's link toward its parent is positive (dropping a
  /// failing tuple is harmless). Aggregate links count as negative: an
  /// empty group can still satisfy them (COUNT) and must survive padding.
  bool LinkIsPositive() const {
    return !is_aggregate_link && IsPositiveLinkOp(link_op);
  }

  /// The algebraic linking predicate this block contributes, over the named
  /// group (column names refer to the flat wide schema / member atoms).
  LinkingPredicate MakeLinkPredicate(const std::string& group_name) const;

  /// The outer side of the linking predicate as a scalar expression — a
  /// column reference or a literal. Used by the join-based rewrites.
  ExprPtr LinkingExpr() const {
    return linking_is_const ? Lit(linking_const) : Col(linking_attr);
  }

  /// Total number of blocks in this subtree.
  int NumBlocks() const;

  /// Max nesting depth below (a flat query is 0, one-level nested 1, ...).
  int NestingDepth() const;

  /// True when every linking operator in the subtree is positive.
  bool AllLinksPositive() const;

  /// True when the query is *linear* (every block has at most one child) —
  /// the precondition of the paper's "nested linear query" definition.
  bool IsLinear() const;

  /// True when the query is linear AND every block is correlated only to its
  /// adjacent outer block — the §4.2.3 "linear correlation" special case.
  bool IsLinearCorrelated() const;

  /// Indented multi-line rendering for debugging and tests.
  std::string ToString(int indent = 0) const;
};

using QueryBlockPtr = std::unique_ptr<QueryBlock>;

}  // namespace nestra

#endif  // NESTRA_PLAN_QUERY_BLOCK_H_
