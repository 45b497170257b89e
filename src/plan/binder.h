#ifndef NESTRA_PLAN_BINDER_H_
#define NESTRA_PLAN_BINDER_H_

#include <memory>
#include <set>
#include <vector>

#include "plan/query_block.h"
#include "sql/ast.h"
#include "storage/catalog.h"

namespace nestra {

/// \brief Parameter-binding context for PREPAREd statements.
///
/// Pass a ParamBinding to BindQuery to allow `$n` placeholders: every
/// ParamExpr the binder creates shares `slots`, so the prepared statement
/// stores per-execution values there and the bound tree (including its
/// per-execution predicate clones) reads them without re-binding. Binding
/// leaves `slots` empty: every parameter stays unbound (opaque to the plan
/// verifier) until EXECUTE writes all `count` values, from when on each
/// `$n` is a constant to the scan kernels, zone maps, estimator and
/// property analyzer (see BoundConstant in expr/expr.h).
struct ParamBinding {
  std::shared_ptr<std::vector<Value>> slots =
      std::make_shared<std::vector<Value>>();
  /// Highest $n seen (parameters are 1-based; gaps are allowed and the
  /// unreferenced slots simply stay unread).
  int count = 0;
  /// 0-based slot indices compared against a DATE column somewhere in the
  /// statement. String literals get date-coerced at bind time; parameter
  /// values are unknown until EXECUTE, so the session layer uses this set to
  /// coerce string arguments to dates at execution time instead.
  std::set<int> date_params;
};

/// \brief Binds a parsed SELECT against the catalog, producing the
/// QueryBlock tree consumed by the nested relational planner and the
/// baselines.
///
/// Binding performs:
///  * table/alias resolution (aliases must be unique across all blocks);
///  * column resolution with SQL scoping (innermost block first, then
///    enclosing blocks outward), rewriting every reference to its fully
///    qualified "alias.column" form;
///  * classification of WHERE conjuncts into local predicates σ_i and
///    correlated predicates C_ij;
///  * extraction of linking predicates — subquery predicates must appear as
///    top-level conjuncts (not under OR or NOT), the standard restriction
///    for unnesting, satisfied by every query in the paper;
///  * date literal coercion: a string literal compared against a date
///    column becomes a date;
///  * block key attribution: each block's first table must have a primary
///    key registered in the catalog (the paper's "unique non-null
///    attribute" assumption);
///  * the carried columns: a post-pass over the whole tree fills each
///    block's QueryBlock::carried from the columns read after the base
///    scans (and, in multi-table blocks, every FROM table's key).
/// When `params` is null (the default), `$n` placeholders are a bind error —
/// parameters only make sense under PREPARE.
Result<QueryBlockPtr> BindQuery(const AstSelect& ast, const Catalog& catalog,
                                ParamBinding* params = nullptr);

/// Convenience: parse + bind.
Result<QueryBlockPtr> ParseAndBind(const std::string& sql,
                                   const Catalog& catalog);

}  // namespace nestra

#endif  // NESTRA_PLAN_BINDER_H_
