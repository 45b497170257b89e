#ifndef NESTRA_NRA_COST_H_
#define NESTRA_NRA_COST_H_

#include <vector>

#include "exec/join_hints.h"
#include "nra/options.h"
#include "plan/query_block.h"
#include "plan/stats/estimator.h"
#include "storage/catalog.h"

namespace nestra {

/// \brief THE decision points for cost-driven planning, in the same shared
/// form as rewrites.h's TakesTwoValuedAntijoin (the PR 7 consolidation
/// rule): NraExecutor (staged and pipelined), PlanVerifier::Outline, and
/// ExplainQuery all call these inline predicates, so the executed plan, the
/// verifier outline, and EXPLAIN can never disagree about a cost decision.
/// tools/lint_engine_invariants.py (check 6) rejects direct calls to the
/// underlying estimator gates outside this header, and requires these
/// predicates to appear in all three consumers.
///
/// Everything here is inline and calls only nestra_plan-compiled code, so
/// the verifier keeps using this header without linking nestra_nra.

/// §4.2.5 semijoin rewrite decision: the flag is an unconditional override;
/// otherwise cost_based applies the rewrite when the estimates say the
/// avoided join intermediate is large. `strict_safe` is computed by each
/// consumer from its own path walk (StrictSafe / PathStrictSafe), mirroring
/// how the two-valued ladder passes its own proofs in.
inline bool TakesSemijoinRewrite(const QueryBlock& child,
                                 const std::vector<const QueryBlock*>& path,
                                 bool strict_safe, const Catalog& catalog,
                                 const NraOptions& options) {
  if (!child.IsLeaf() || !child.LinkIsPositive() || !strict_safe) {
    return false;
  }
  if (options.rewrite_positive) return true;
  return options.cost_based && CostGatesSemijoinRewrite(child, path, catalog);
}

/// §4.2.4 nest push-down decision. Consumers AND this with their structural
/// equi-correlation check (AllEquiCorrelation / LooksEquiCorrelated /
/// EquiCorrelationSplit — schema-dependent, so it stays at the site).
inline bool TakesNestPushDown(const QueryBlock& child,
                              const std::vector<const QueryBlock*>& path,
                              const Catalog& catalog,
                              const NraOptions& options) {
  if (!child.IsLeaf()) return false;
  if (options.push_down_nest) return true;
  return options.cost_based && CostGatesNestPushDown(child, path, catalog);
}

/// Physical hints for the JoinWithChild connecting `child` to the
/// accumulated outer relation: perfect (dense-array) keying. Inert
/// defaults when cost_based is off, so every flag-driven plan is
/// byte-identical to the pre-stats executor.
inline JoinBuildHints JoinStrategyFor(const QueryBlock& child,
                                      const std::vector<const QueryBlock*>& path,
                                      const Catalog& catalog,
                                      const NraOptions& options) {
  if (!options.cost_based) return JoinBuildHints{};
  return ChoosesJoinStrategy(child, path, catalog);
}

/// Perfect-keying hints for an intra-block join in EvalBlockBase (build
/// side = the freshly scanned `ref`, single equality key `key_column`,
/// unqualified). The planner takes a bare bool because its signature
/// predates NraOptions plumbing.
inline JoinBuildHints BaseJoinStrategyFor(const Catalog& catalog,
                                          const QueryBlock::TableRef& ref,
                                          const std::string& key_column,
                                          bool cost_based) {
  if (!cost_based) return JoinBuildHints{};
  return ChoosesScanJoinStrategy(catalog, ref, key_column);
}

/// True when every non-root block of `path` links positively — the inline
/// mirror of rewrites.h's StrictSafe, restated here because StrictSafe is
/// compiled into nestra_nra and the verifier only links nestra_plan.
inline bool PathLinksAllPositive(const std::vector<const QueryBlock*>& path) {
  for (size_t i = 1; i < path.size(); ++i) {
    if (!path[i]->LinkIsPositive()) return false;
  }
  return true;
}

/// The fused-chain bypass for cost-gated rewrites, parallel to rewrites.h's
/// FusedChainBypassesTwoValued: a linear chain whose leaf would take a
/// cost-gated §4.2.5 / §4.2.4 rewrite must route through the recursive path
/// — the single-sort fused pipeline would materialize exactly the join
/// intermediate the gate says to avoid. `chain` is root-first.
inline bool FusedChainBypassesForCost(
    const std::vector<const QueryBlock*>& chain, const Catalog& catalog,
    const NraOptions& options) {
  if (!options.cost_based || chain.size() < 2) return false;
  const QueryBlock& leaf = *chain.back();
  const std::vector<const QueryBlock*> leaf_path(chain.begin(),
                                                 chain.end() - 1);
  if (PathLinksAllPositive(leaf_path) && leaf.LinkIsPositive() &&
      leaf.IsLeaf() && CostGatesSemijoinRewrite(leaf, leaf_path, catalog)) {
    return true;
  }
  std::vector<CorrelationPair> pairs;
  if (leaf.IsLeaf() && EquiCorrelationPairs(leaf, &pairs) &&
      CostGatesNestPushDown(leaf, leaf_path, catalog)) {
    return true;
  }
  return false;
}

}  // namespace nestra

#endif  // NESTRA_NRA_COST_H_
