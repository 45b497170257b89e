#ifndef NESTRA_NRA_OPTIONS_H_
#define NESTRA_NRA_OPTIONS_H_

#include <cstdint>
#include <string>

#include "nested/nest.h"

namespace nestra {

/// \brief Tuning knobs for the nested relational executor. Each flag maps to
/// one of the paper's optimization subsections, so ablation benches can
/// toggle them independently.
struct NraOptions {
  /// §4.2.1 + §4.2.2: perform all nesting with one sort and pipeline each
  /// nest with its linking selection (single streaming pass). Off = the
  /// "original" approach: one materialized nest + one materialized linking
  /// selection per level.
  bool fused = true;

  /// Nest implementation for the non-fused path (§5.1 implements nest by
  /// sorting; hashing is the stated alternative).
  NestMethod nest_method = NestMethod::kSort;

  /// §4.2.4: push the nest below the (outer) join when the child is a leaf
  /// and all its correlated predicates are equalities — the inner relation
  /// is grouped by its correlation key and the linking predicate is
  /// evaluated per outer row against its (single) group, avoiding the wide
  /// intermediate join result.
  bool push_down_nest = false;

  /// §4.2.5: rewrite a leaf child with a *positive* linking operator into a
  /// semijoin (R ⋉_{C ∧ AθB} S) when dropping failing tuples is safe.
  bool rewrite_positive = false;

  /// §4.2.3: evaluate linear-correlated queries bottom-up, so only
  /// qualified tuples participate in further outer joins.
  bool bottom_up_linear = false;

  /// Magic-set-style restriction (the decorrelation idea of Seshadri et al.
  /// the paper cites as [17,18]): before outer-joining a child block, semi-
  /// join its base relation with the DISTINCT correlation keys of the
  /// accumulated outer relation, so only inner tuples that can match
  /// participate. Applies to equality correlations; a no-op otherwise.
  bool magic_restriction = false;

  /// Morsel-driven parallelism degree for the execution engine: hash-join
  /// build/probe, the sorts behind SortNode / sort-based nest / the fused
  /// evaluator's single sort, base-table scan+filter, and the pushed-down
  /// linking selection. 0 = auto (std::thread::hardware_concurrency);
  /// 1 = the serial paths, which stay intact as the correctness oracle.
  /// Results are byte-identical for every setting.
  int num_threads = 0;

  /// Vectorized batch execution: operators exchange columnar RowBatches
  /// (RowBatch::kDefaultCapacity rows) instead of one Row per Next() call
  /// on the paths with native batch implementations — base-table
  /// scan+filter, hash-join build/probe, sort drains, and the fused
  /// nest+linking-selection pass. Row mode (`false`) is the reference
  /// engine; results, EXPLAIN ANALYZE stage lists, and IoSim totals are
  /// identical for either setting.
  bool vectorized = true;

  /// Proven-2VL fast path: when the static property analyzer
  /// (src/verify/properties.h) proves a predicate or negative linking
  /// operator can never evaluate to UNKNOWN, skip the 3VL machinery —
  /// scan filters select vectorized kernels without per-value NULL checks,
  /// and an eligible negative leaf link runs as a plain hash/NL antijoin
  /// instead of nest + pseudo-selection. Bit-identical results either way
  /// (enforced by the property suites); off = always use the 3VL paths.
  bool two_valued = true;

  /// Cost-driven planning from load-time table statistics (DESIGN.md §13):
  /// the perfect (dense-array) hash join, zone-map morsel pruning on base
  /// scans, and cardinality-gated §4.2.5 / §4.2.4 rewrites (the explicit
  /// flags above stay as unconditional overrides).
  /// Every decision is made once, by BuildPhysicalPlan, and EXPLAIN, the
  /// verifier and the executor read that plan; results are bit-identical
  /// either way — the gates only pick between semantics-preserving plans.
  /// Off = plan purely from the flags, the pre-stats behaviour.
  bool cost_based = true;

  /// Collect a per-operator QueryProfile (pass one to Execute*/ExplainAnalyze
  /// to receive it). Off by default: the engine then keeps only the cheap
  /// per-operator row/call counters and never reads the clock on the
  /// per-row path — near-zero overhead.
  bool profile = false;

  /// Run the static plan verifier (src/verify/) over the bound block tree
  /// before execution; any error-severity diagnostic fails the query with
  /// InvalidArgument instead of executing a plan that would silently break
  /// the paper's invariants.
  bool verify_plans = true;

  /// Slow-query log threshold in milliseconds: a query whose wall time
  /// (parse + execute) exceeds this emits one structured-JSON line to the
  /// telemetry slow-query sink (NESTRA_SLOW_QUERY_LOG file, else stderr —
  /// see src/telemetry/slow_query.h). 0 (default) disables the log and its
  /// clock reads entirely.
  double slow_query_ms = 0;

  /// Soft per-query memory limit in bytes, checked against the query's
  /// accounted logical bytes at materialization fold points (hash-join
  /// builds, sort buffers, nest/linking stage results — see
  /// src/common/memory_tracker.h). A query that exceeds it fails loudly
  /// with a ResourceExhausted status and no partial results; its admission
  /// ticket is released like any other failure. 0 (default) disables the
  /// check entirely — accounting still runs (it is a few integer adds),
  /// but no query can fail on memory.
  int64_t max_query_mem = 0;

  /// When non-empty, installs the Chrome trace_event sink at this path and
  /// records parse/verify/plan/execute-stage spans (plus thread-pool task
  /// spans) for every query this executor runs; the JSON is written at
  /// process exit (or telemetry::FlushTrace). Equivalent to setting
  /// NESTRA_TRACE_JSON in the environment. Empty (default) records nothing.
  std::string trace_path;

  /// Session label ("s3") stamped into telemetry this executor emits —
  /// slow-query log lines and trace spans — so concurrent sessions' output
  /// is attributable. Set by the server Session layer; empty (default) for
  /// direct library callers, which keeps their telemetry byte-identical to
  /// the pre-session format.
  std::string session_label;

  /// The paper's two measured configurations.
  static NraOptions Original() {
    NraOptions o;
    o.fused = false;
    return o;
  }
  static NraOptions Optimized() { return NraOptions(); }

  std::string ToString() const;
};

/// \brief Timing / cardinality breakdown mirroring the paper's reporting:
/// the join ("unnesting") phase versus the nest + linking-selection phase,
/// plus the intermediate result size the paper uses as its main parameter.
struct NraStats {
  double join_seconds = 0;
  double nest_select_seconds = 0;
  int64_t intermediate_rows = 0;
  int64_t output_rows = 0;
  /// Deterministic peak accounted bytes of the query: the largest
  /// single-stage logical footprint (max across set-operation branches).
  /// Always filled — memory accounting does not require profiling.
  int64_t peak_mem_bytes = 0;

  double total_seconds() const { return join_seconds + nest_select_seconds; }
  std::string ToString() const;
};

}  // namespace nestra

#endif  // NESTRA_NRA_OPTIONS_H_
