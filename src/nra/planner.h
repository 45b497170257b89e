#ifndef NESTRA_NRA_PLANNER_H_
#define NESTRA_NRA_PLANNER_H_

#include <string>
#include <vector>

#include "exec/exec_node.h"
#include "exec/join_hints.h"
#include "exec/join_type.h"
#include "plan/query_block.h"
#include "storage/catalog.h"

namespace nestra {

class QueryProfile;

/// \brief Shared plan-construction helpers used by the nested relational
/// executor and the baselines.
///
/// Every entry point that executes takes an optional QueryProfile: when
/// non-null it appends exactly one stage (label and row count independent
/// of `num_threads`) with phase attribution and, where an operator tree
/// ran, its stats snapshot.

/// "base[o l]": the profile stage label of a block's base evaluation — the
/// aliases (or table names) of its FROM tables, thread-count independent so
/// profile stage lists compare across runs.
std::string BlockLabel(const QueryBlock& block);

/// Builds π_columns(σ_i(R_i)): scans the block's tables under their
/// aliases, joins them on the local equality predicates (hash join;
/// remaining local conjuncts become filters) and returns the materialized
/// result projected onto `columns` (fully qualified names, in the given
/// order). The NRA executor passes the block's `carried` list; the
/// baselines pass `attributes`, which keeps their base relations full-width.
/// Local predicates always see every column: the projection comes last.
/// Single-table blocks run as one fused ScanFilter over the table's
/// columnar mirror (Catalog::GetMirror): granule by granule, compiled
/// predicate on the mirror, survivors left as row references into the
/// mirror's granules whose output columns are `columns` (a referenced
/// Table, DESIGN.md §8; no cell is copied), in parallel granule slots
/// concatenated in order when `num_threads > 1` — identical rows and IoSim
/// charges at every thread count. Only the one-thread row engine (`vectorized` false,
/// `num_threads` 1) keeps the ScanNode/FilterNode pipeline, as the oracle,
/// with a ProjectNode on top (multi-table blocks likewise; a projection onto
/// the full schema is skipped).
/// `num_threads > 1` also runs multi-table blocks' hash joins in parallel;
/// `vectorized` drains their operator trees in columnar RowBatches
/// (identical rows, identical IoSim charges). `two_valued` lets ScanFilter
/// compile predicates against Catalog::ProvenNotNull facts: terms whose
/// operands are proven non-NULL pick kernels with no per-value NULL checks
/// (bit-identical output whenever the proofs hold, which registration
/// guarantees for immutable tables). `cost_based` enables the stats-driven
/// physical choices (DESIGN.md §13): zone-map granule pruning on
/// single-table scans whose local predicate provably rejects whole
/// granules (ScanFilter then walks only the kept granules, for every
/// engine combination), and perfect (dense-array) keying hints for
/// intra-block hash joins.
Result<Table> EvalBlockBase(const QueryBlock& block, const Catalog& catalog,
                            const std::vector<std::string>& columns,
                            int num_threads = 1,
                            QueryProfile* profile = nullptr,
                            bool vectorized = false,
                            bool two_valued = false,
                            bool cost_based = false);

/// Filters `in` down to the rows matching `pred` using row-range morsels
/// (serial when `num_threads <= 1`); row order is preserved, so the result
/// equals a serial FilterNode pass. When `columns` is non-null the
/// survivors are projected onto those columns.
Result<Table> ParallelFilterTable(
    Table in, const Expr* pred, int num_threads,
    const std::vector<std::string>* columns = nullptr);

/// Joins `rel` (the accumulated outer relation) with the child block's base
/// relation using the child's correlated predicates as the join condition:
///  * equality conjuncts between the two sides become hash-join keys;
///  * everything else becomes the join residual;
///  * no correlated predicates at all yields the paper's "virtual Cartesian
///    product" (a left outer cross join so an empty subquery still pads).
/// `join_type` is kLeftOuter for the NRA pipeline, kLeftSemi / kLeftAnti for
/// the rewrite and baseline plans. `hints` carries the cost-based physical
/// strategy for the hash-join form (PlanStep::hints); the defaults
/// reproduce the pre-stats plan exactly. With `vectorized` the
/// hash join reads both inputs in place and its result is referenced
/// (HashJoinNode::HandOffRefs): no cell of the joined relation is copied.
Result<Table> JoinWithChild(Table rel, Table child_base,
                            const QueryBlock& child, JoinType join_type,
                            ExprPtr extra_condition = nullptr,
                            int num_threads = 1,
                            QueryProfile* profile = nullptr,
                            bool vectorized = false,
                            const JoinBuildHints& hints = {});

/// Clones and conjoins the child's correlated predicates (nullptr when it
/// has none).
ExprPtr CloneCorrelatedPreds(const QueryBlock& child);

/// Extracts the linear chain of blocks (root first). Fails if the query is
/// a tree query (some block has more than one child).
Result<std::vector<const QueryBlock*>> LinearChain(const QueryBlock& root);

/// Applies the root block's output decorations to a finished relation:
/// optional root-key IS NOT NULL guard (`key_filter_attr` non-empty),
/// ORDER BY (before projection, so non-selected columns can order), the
/// select-list projection, DISTINCT (order-preserving), and LIMIT.
Result<Table> FinalizeRootOutput(const QueryBlock& root, Table rel,
                                 const std::string& key_filter_attr = "",
                                 int num_threads = 1,
                                 QueryProfile* profile = nullptr,
                                 bool vectorized = false);

/// True when every correlated predicate of `child` is a plain equality
/// `outer_col = child_col` (the §4.2.4 push-down precondition); fills
/// `outer_cols`/`child_cols` with the pairs when so.
bool AllEquiCorrelation(const QueryBlock& child, const Schema& outer_schema,
                        const Schema& child_schema,
                        std::vector<std::string>* outer_cols,
                        std::vector<std::string>* child_cols);

}  // namespace nestra

#endif  // NESTRA_NRA_PLANNER_H_
