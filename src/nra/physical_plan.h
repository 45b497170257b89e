#ifndef NESTRA_NRA_PHYSICAL_PLAN_H_
#define NESTRA_NRA_PHYSICAL_PLAN_H_

#include <map>
#include <string>
#include <vector>

#include "common/status.h"
#include "exec/join_hints.h"
#include "nested/linking_selection.h"
#include "nra/options.h"
#include "plan/query_block.h"
#include "plan/stats/estimator.h"
#include "storage/catalog.h"

namespace nestra {

/// How the executor evaluates a query with subqueries as a whole.
enum class PlanRoute {
  kFlat,            // no subquery: scan + filter + project
  kBottomUpLinear,  // §4.2.3: each level reduces before joining upward
  kFusedChain,      // §4.2.1 + §4.2.2: one wide join, one sort, one pass
  kRecursive,       // Algorithm 1 over the block tree
};

/// How one linking selection of the plan evaluates its nest + selection.
enum class PlanStepKind {
  kNestSelect,      // nest by the retained prefix, then linking selection
  kHashLinkSelect,  // §4.2.4 push-down / virtual Cartesian product
  kSemijoin,        // §4.2.5 positive rewrite (no nest at all)
  kAntijoin,        // proven-2VL negative-link rewrite (no nest at all)
};

/// Evaluation order of the step relative to its enclosing links. In the
/// top-down orders an enclosing negative operator may still need a failing
/// tuple (pseudo mode required); in the §4.2.3 bottom-up order nothing is
/// pending below, so the strict selection is always sound.
enum class PlanStepOrder { kTopDown, kBottomUp };

/// \brief One child link of the plan: the nest υ_{N1,N2} for `child`'s link
/// evaluated against `parent`'s level, with every choice the executor makes
/// for it.
struct PlanStep {
  const QueryBlock* parent = nullptr;
  const QueryBlock* child = nullptr;
  PlanStepKind kind = PlanStepKind::kNestSelect;
  PlanStepOrder order = PlanStepOrder::kTopDown;
  /// True for the levels of the single-sort fused pipeline (§4.2.1): the
  /// pseudo-selection's padding is implicit there (a failing group simply
  /// contributes no member), so no pad list is required.
  bool streaming = false;
  SelectionMode mode = SelectionMode::kStrict;
  /// N1: the prefix the nest groups by. A push-down step keeps the prefix
  /// its run-time fallback nests by; a virtual Cartesian product has none.
  std::vector<std::string> nesting_attrs;
  std::vector<std::string> nested_attrs;  // N2
  std::vector<std::string> pad_attrs;     // A (pseudo mode)
  /// Enclosing blocks, root first, ending at `parent`.
  std::vector<const QueryBlock*> path;
  /// Every link on `path` is positive, so a selection here may drop a
  /// failing tuple (the root level always may).
  bool strict_safe = true;
  /// Physical hints for the join of the child base (inert defaults unless
  /// cost_based).
  JoinBuildHints hints;
  /// The magic restriction shrinks the child base before the outer join.
  bool magic = false;
  /// The nest and the linking selection run as one fused pass.
  bool fused = false;
  /// §4.2.4 push-down is a candidate: the step runs a hash link-select when
  /// AllEquiCorrelation splits the correlation over the materialized
  /// schemas, and the outer join + nest + selection otherwise.
  bool push_down = false;
};

/// \brief The evaluation of one bound query, decided once by
/// BuildPhysicalPlan. The executor runs it, EXPLAIN prints it and
/// PlanVerifier checks it; none of them re-derives a decision.
struct PhysicalPlan {
  PlanRoute route = PlanRoute::kFlat;
  /// One step per child link, in evaluation order: post-order for the
  /// recursive route, root level first for the fused chain, innermost level
  /// first for the bottom-up chain.
  std::vector<PlanStep> steps;
  /// Row estimates of the stages this plan runs, keyed by profile stage
  /// label. Blocks whose base stages share a label keep the larger
  /// estimate. Empty when statistics are missing for the root.
  std::map<std::string, StageEstimate> estimates;

  /// The step for `child`'s link, or null when the plan has none.
  const PlanStep* StepFor(const QueryBlock& child) const {
    for (const PlanStep& s : steps) {
      if (s.child == &child) return &s;
    }
    return nullptr;
  }
};

/// Decides the route and every step of `root` under `options`, estimating
/// each block once. Runs on any bound tree, verified or not.
PhysicalPlan BuildPhysicalPlan(const QueryBlock& root, const Catalog& catalog,
                               const NraOptions& options);

/// Builds the plan and runs PlanVerifier over it; OK unless the report has
/// an error.
Status VerifyPlan(const QueryBlock& root, const Catalog& catalog,
                  const NraOptions& options);

}  // namespace nestra

#endif  // NESTRA_NRA_PHYSICAL_PLAN_H_
