#ifndef NESTRA_NRA_REWRITES_H_
#define NESTRA_NRA_REWRITES_H_

#include <string>
#include <vector>

#include "nested/linking_selection.h"
#include "nra/options.h"
#include "plan/query_block.h"
#include "storage/catalog.h"
#include "verify/properties.h"

namespace nestra {

/// \brief THE decision point for the proven-2VL antijoin rewrite: true when
/// the executor runs `child`'s negative link as a plain antijoin instead of
/// nest + pseudo-selection. Every consumer — NraExecutor,
/// PlanVerifier::Outline, ExplainQuery — must call this one predicate so
/// the executed plan, the verifier outline, and EXPLAIN can never disagree
/// (tools/lint_engine_invariants.py rejects new direct
/// NegativeLinkRunsTwoValued call sites outside this header; the verifier's
/// CheckOutline keeps one as an independent re-validation). `path` lists the
/// enclosing blocks, root first, ending at `child`'s parent.
inline bool TakesTwoValuedAntijoin(const QueryBlock& child,
                                   const std::vector<const QueryBlock*>& path,
                                   const Catalog& catalog,
                                   const NraOptions& options) {
  return options.two_valued && NegativeLinkRunsTwoValued(child, path, catalog);
}

/// \brief The fused-chain bypass, in the same shared form: a linear chain
/// whose leaf link takes the two-valued antijoin must route through the
/// recursive path (the single-sort fused pipeline would push the same link
/// through 3VL member handling). `chain` is the linear chain root-first;
/// chains shorter than two blocks have no link and never bypass.
inline bool FusedChainBypassesTwoValued(
    const std::vector<const QueryBlock*>& chain, const Catalog& catalog,
    const NraOptions& options) {
  if (chain.size() < 2) return false;
  const std::vector<const QueryBlock*> leaf_path(chain.begin(),
                                                 chain.end() - 1);
  return TakesTwoValuedAntijoin(*chain.back(), leaf_path, catalog, options);
}

/// \brief §4.2.4 nest push-down, in executable form. Instead of
/// `σ_L(υ_{N1,N2}(rel ⟕_C inner))`, the inner relation is grouped once by
/// its correlation key (a hash-based nest pushed below the join) and the
/// linking predicate is evaluated per outer row against the row's single
/// group. Requires every correlated predicate to be an equality — the same
/// precondition as pushing a group-by past a join.
///
/// `child` supplies the linking predicate fields (link_op/link_cmp/
/// linking_attr resolve in `outer`; linked_attr/key_attr in `inner`).
/// In kPseudo mode failing rows are kept with `pad_attrs` nulled; in
/// kStrict mode they are dropped.
///
/// With `num_threads > 1` the per-outer-row evaluation runs over row-range
/// morsels (each with its own accumulator) against the shared read-only
/// group table; per-morsel outputs are concatenated in morsel order, so the
/// result is identical to the serial pass.
Result<Table> HashLinkSelect(Table outer, const Table& inner,
                             const std::vector<std::string>& outer_key_cols,
                             const std::vector<std::string>& inner_key_cols,
                             const QueryBlock& child, SelectionMode mode,
                             const std::vector<std::string>& pad_attrs,
                             int num_threads = 1);

/// \brief §4.2.5 positive-operator rewrite: builds the extra join condition
/// `A θ B` for IN / θ SOME links (nullptr for EXISTS, whose semijoin
/// condition is the correlation alone). The caller combines it with the
/// correlated predicates and runs a LeftSemi join:
/// σ_{AθSOME{B}}(υ_{A,B}(R ⟕_C S)) ≡ R ⋉_{C ∧ AθB} S.
Result<ExprPtr> PositiveLinkJoinCondition(const QueryBlock& child);

/// \brief Proven-2VL negative-operator rewrite: builds the extra antijoin
/// condition that matches inner rows *violating* the negative link —
/// `A = B` for NOT IN, `A ¬θ B` for θ ALL, nullptr for NOT EXISTS (the
/// correlation alone). The caller combines it with the correlated
/// predicates and runs a LeftAnti join:
/// σ_{AθALL{B}}(υ_{A,B}(R ⟕_C S)) ≡ R ▷_{C ∧ A¬θB} S — equivalent only
/// when the member comparison is two-valued (see
/// NegativeLinkRunsTwoValued); an UNKNOWN member makes 3VL NOT IN / ALL
/// reject the tuple while the antijoin would keep it.
Result<ExprPtr> AntiLinkJoinCondition(const QueryBlock& child);

/// Magic-set restriction: semijoins `child_base` with the distinct
/// equality-correlation keys of `outer`, discarding inner tuples that
/// cannot match any outer tuple. Returns the input unchanged when the
/// child's correlation is not purely equality-based.
Result<Table> MagicRestrict(const Table& outer, Table child_base,
                            const QueryBlock& child);

/// True when dropping failing tuples while computing a predicate at the end
/// of `path` (root..current node) cannot erase information an enclosing
/// negative predicate still needs: every link on the path (the links of the
/// non-root blocks) is positive. The root itself is always strict-safe.
bool StrictSafe(const std::vector<const QueryBlock*>& path);

}  // namespace nestra

#endif  // NESTRA_NRA_REWRITES_H_
