#ifndef NESTRA_PLAN_STATS_ESTIMATOR_H_
#define NESTRA_PLAN_STATS_ESTIMATOR_H_

#include <map>
#include <string>
#include <vector>

#include "exec/join_hints.h"
#include "plan/query_block.h"
#include "storage/catalog.h"

namespace nestra {

/// \brief Bottom-up statistics propagation over bound query blocks, and the
/// cost gates derived from it (DESIGN.md §13).
///
/// Every estimate is deterministic — same catalog stats, same numbers. The
/// plan decisions read them in one place, BuildPhysicalPlan
/// (src/nra/physical_plan.h), which estimates each block once and folds the
/// outer relation along the path; tools/lint_engine_invariants.py (check 4)
/// rejects gate calls from anywhere else.

/// Derived estimate for one (possibly qualified) column of a relation.
/// Ranges are sound bounds inherited from load-time ColumnStats and only
/// ever narrowed by predicates; `distinct` and `null_frac` are estimates.
struct ColumnEstimate {
  bool has_range = false;
  double min = 0.0;
  double max = 0.0;
  bool integer_only = false;
  int64_t min_i64 = 0;
  int64_t max_i64 = 0;
  double distinct = 0.0;  // 0 = unknown
  double null_frac = 0.0;
};

/// Estimate for one relation (a block base, or the accumulated outer
/// relation along a path of outer joins).
struct RelEstimate {
  /// True when stats were available for every referenced table. When false
  /// the other fields are meaningless and every consumer must fall back to
  /// the flag-driven plan.
  bool known = false;
  double rows = 0.0;      // point estimate
  double max_rows = 0.0;  // sound upper bound: the relation can never exceed
                          // this many rows, whatever the predicates select
  std::map<std::string, ColumnEstimate> columns;  // by qualified name
};

/// Estimates T_i = σ_i(R_i) — the block's base relation as EvalBlockBase
/// builds it: cross size of the FROM tables, local equi-join conjuncts at
/// 1/max(ndv), literal comparisons by range interpolation (which also
/// narrows the column ranges). `max_rows` is the plain cross-product bound.
RelEstimate EstimateBlockBase(const QueryBlock& block, const Catalog& catalog);

/// One `outer_col = child_col` equality pulled out of a child block's
/// correlated predicates.
struct CorrelationPair {
  std::string outer_col;  // resolves in an ancestor block
  std::string child_col;  // resolves in the child block
};

/// True when every correlated predicate of `child` is a plain equality
/// between one of its own columns and an outer column (classified by
/// membership in child.attributes — no schemas needed); fills `out`.
bool EquiCorrelationPairs(const QueryBlock& child,
                          std::vector<CorrelationPair>* out);

/// Matches per outer row when `child`'s base joins on its equality
/// correlation keys: child.rows / max ndv over the child-side key columns.
/// Falls back to child.rows (cross join) when the correlation is not purely
/// equality-based.
double EstimateJoinFanout(const RelEstimate& child_base,
                          const QueryBlock& child);

/// The accumulated outer relation after its left outer join with `block`'s
/// base (estimated as `block_base`) on the block's correlation. Left-outer
/// keeps every outer row, so rows multiply by max(fanout, 1) and bounds by
/// max(block bound, 1). Carries no column estimates (no consumer reads them
/// past a join). Unknown when either input is.
RelEstimate EstimateOuterJoin(const RelEstimate& outer,
                              const RelEstimate& block_base,
                              const QueryBlock& block);

// ---------------------------------------------------------------------------
// Cost gates. Called only from BuildPhysicalPlan, and the scan strategy from
// EvalBlockBase (lint check 4). `outer` estimates the accumulated relation
// entering the child's join, `child_base` the child's base relation.
// ---------------------------------------------------------------------------

/// Rewrite gates fire only when the estimated join intermediate reaches
/// this many rows. Chosen above every tier-1 test workload (TPC-H scale
/// 0.01–0.04 tops out around 2.4k intermediate rows), so test plans — and
/// the suites pinned to their profiles — are identical with cost_based on
/// or off, while bench-scale data (15k orders × 4 lineitem fanout) clears
/// it comfortably.
inline constexpr double kCostMinJoinRows = 8192;

/// Build-side decisions (swap, perfect keying) need at least this many
/// estimated build rows before the table layout matters.
inline constexpr double kCostMinBuildRows = 1024;

/// Perfect (dense-array) keying caps: the key span must fit a modest array
/// (kPerfectMaxSpan entries) and be reasonably dense relative to the build
/// input (span <= kPerfectMaxSparsity × build rows), or the array is mostly
/// empty pointers and the generic table wins on locality.
inline constexpr int64_t kPerfectMaxSpan = int64_t{1} << 22;
inline constexpr double kPerfectMaxSparsity = 8.0;

/// §4.2.5 semijoin rewrite pays one dedup + hash probe to avoid
/// materializing the outer×fanout join result and nesting it back. Gate:
/// estimates known AND outer_rows × max(fanout, 1) >= kCostMinJoinRows AND
/// fanout >= 2 (at fanout < 2 the generic join intermediate is no wider
/// than the outer relation and the rewrite cannot win).
bool CostGatesSemijoinRewrite(const QueryBlock& child,
                              const RelEstimate& outer,
                              const RelEstimate& child_base);

/// §4.2.4 nest push-down avoids the same wide intermediate by grouping the
/// child base once on its correlation key. Same gate as the semijoin
/// rewrite — both are "the join intermediate is big" decisions.
bool CostGatesNestPushDown(const QueryBlock& child, const RelEstimate& outer,
                           const RelEstimate& child_base);

/// Physical strategy for JoinWithChild(outer_rel, child_base, child, ...):
/// perfect (dense-array) keying when the single equality key's child-side
/// (build) column is integer-valued over a dense span. The build side is
/// always the child base. Returns inert default hints when stats are
/// missing.
JoinBuildHints ChoosesJoinStrategy(const QueryBlock& child,
                                   const RelEstimate& outer,
                                   const RelEstimate& child_base);

/// The same, estimating the outer relation along `path` (root first, ending
/// at the child's parent) and the child base from the catalog.
JoinBuildHints ChoosesJoinStrategy(const QueryBlock& child,
                                   const std::vector<const QueryBlock*>& path,
                                   const Catalog& catalog);

/// Perfect-keying hints for an intra-block join inside EvalBlockBase, where
/// the build side is the freshly scanned table `ref` and the single build
/// key is `key_column` (unqualified). Returns inert defaults when
/// ineligible.
JoinBuildHints ChoosesScanJoinStrategy(const Catalog& catalog,
                                       const QueryBlock::TableRef& ref,
                                       const std::string& key_column);

/// Estimated output rows of one profile stage. `rows` is the point
/// estimate; `bound` is a sound upper limit on the stage's rows_out (the
/// stats-soundness property test asserts actual <= bound). -1 = unknown.
struct StageEstimate {
  double rows = -1.0;
  double bound = -1.0;
};

}  // namespace nestra

#endif  // NESTRA_PLAN_STATS_ESTIMATOR_H_
