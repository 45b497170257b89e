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
/// Every estimate is deterministic — same catalog stats, same numbers — so
/// the executor, EXPLAIN, and the plan verifier recompute identical
/// decisions from it. The cost-gate functions at the bottom are called ONLY
/// through the shared predicates in src/nra/cost.h; lint check 6
/// (tools/lint_engine_invariants.py) rejects direct call sites elsewhere,
/// mirroring the PR 7 consolidation rule for the two-valued rewrite.

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

/// Estimates the accumulated outer relation at the point where the last
/// block of `path` (root first) is about to join one of its children:
/// the root base folded through one left-outer join per non-root path
/// block. Left-outer keeps every outer row, so rows multiply by
/// max(fanout, 1) and bounds by max(child_bound, 1).
RelEstimate EstimateOuterAtChild(const std::vector<const QueryBlock*>& path,
                                 const Catalog& catalog);

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

// ---------------------------------------------------------------------------
// Cost gates. Call through src/nra/cost.h ONLY (lint check 6): the executor,
// EXPLAIN, and the verifier outline must route through the same inline
// predicate so the executed plan and its descriptions cannot disagree.
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
                              const std::vector<const QueryBlock*>& path,
                              const Catalog& catalog);

/// §4.2.4 nest push-down avoids the same wide intermediate by grouping the
/// child base once on its correlation key. Same gate as the semijoin
/// rewrite — both are "the join intermediate is big" decisions.
bool CostGatesNestPushDown(const QueryBlock& child,
                           const std::vector<const QueryBlock*>& path,
                           const Catalog& catalog);

/// Physical strategy for JoinWithChild(outer_rel, child_base, child, ...):
/// perfect (dense-array) keying when the single equality key's child-side
/// (build) column is integer-valued over a dense span. The build side is
/// always the child base. Returns inert default hints when stats are
/// missing.
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

// ---------------------------------------------------------------------------
// Per-stage estimates for EXPLAIN ANALYZE est-vs-actual output.
// ---------------------------------------------------------------------------

/// Estimated output rows of one profile stage. `rows` is the point
/// estimate; `bound` is a sound upper limit on the stage's rows_out (the
/// stats-soundness property test asserts actual <= bound). -1 = unknown.
struct StageEstimate {
  double rows = -1.0;
  double bound = -1.0;
};

/// Estimates for every profile stage label the executor may emit for this
/// query ("base[...]", "join[bN]", "link-select[bN]", ...), keyed exactly
/// like QueryProfile stage labels. Routing-agnostic: candidates are emitted
/// for all paths a block can take, with bounds sound for each; labels the
/// chosen route never emits are simply ignored at print time. Returns an
/// empty map when stats are missing for any referenced table.
std::map<std::string, StageEstimate> EstimateStages(const QueryBlock& root,
                                                    const Catalog& catalog);

}  // namespace nestra

#endif  // NESTRA_PLAN_STATS_ESTIMATOR_H_
