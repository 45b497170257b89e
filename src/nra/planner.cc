#include "nra/planner.h"

#include <cmath>

#include "common/memory_tracker.h"
#include "common/thread_pool.h"
#include "exec/aggregate.h"
#include "exec/distinct.h"
#include "exec/filter.h"
#include "exec/hash_join.h"
#include "exec/limit.h"
#include "exec/nested_loop_join.h"
#include "exec/project.h"
#include "exec/scan.h"
#include "exec/sort.h"
#include "expr/evaluator.h"
#include "nra/profile.h"
#include "plan/stats/estimator.h"
#include "storage/columnar_mirror.h"
#include "storage/io_sim.h"
#include "storage/table_stats.h"
#include "telemetry/engine_metrics.h"

namespace nestra {

std::string BlockLabel(const QueryBlock& block) {
  std::string label = "base[";
  for (size_t i = 0; i < block.tables.size(); ++i) {
    if (i > 0) label += ' ';
    const QueryBlock::TableRef& ref = block.tables[i];
    label += ref.alias.empty() ? ref.table : ref.alias;
  }
  label += ']';
  return label;
}

namespace {

// One local-predicate conjunct usable for zone-map pruning: a column
// compared to a numeric literal (normalized to `col op lit`), or an
// IS NOT NULL guard. Pruning only ever uses NECESSARY conditions — a
// granule is skipped when the term proves no row in it can pass — so
// conjuncts this misses just cost nothing.
struct ZoneTerm {
  int col = 0;
  bool not_null_only = false;
  CmpOp op = CmpOp::kEq;
  double lit = 0.0;
};

// Doubles represent integers exactly only up to 2^53; literals at or beyond
// 2^52 stay out of pruning so a rounded bound can never misjudge a granule.
constexpr double kZoneLiteralLimit = 4503599627370496.0;  // 2^52

void CollectZoneTerms(const std::vector<ExprPtr>& conjuncts,
                      const Schema& schema, std::vector<ZoneTerm>* out) {
  for (const ExprPtr& e : conjuncts) {
    if (const auto* is_null = dynamic_cast<const IsNullExpr*>(e.get())) {
      // IS NULL cannot prune (zones don't count NULLs per granule); IS NOT
      // NULL prunes all-NULL granules.
      if (!is_null->negated()) continue;
      const auto* col = dynamic_cast<const ColumnRef*>(&is_null->child());
      if (col == nullptr) continue;
      Result<int> idx = schema.Resolve(col->name());
      if (!idx.ok()) continue;
      ZoneTerm t;
      t.col = *idx;
      t.not_null_only = true;
      out->push_back(t);
      continue;
    }
    const auto* cmp = dynamic_cast<const Comparison*>(e.get());
    if (cmp == nullptr) continue;
    const auto* l_col = dynamic_cast<const ColumnRef*>(&cmp->lhs());
    const auto* r_col = dynamic_cast<const ColumnRef*>(&cmp->rhs());
    const ColumnRef* col = l_col != nullptr ? l_col : r_col;
    if (col == nullptr) continue;
    const Value* lit =
        BoundConstant(l_col != nullptr ? cmp->rhs() : cmp->lhs());
    if (lit == nullptr) continue;
    const auto num = lit->AsDouble();
    if (!num.has_value() || std::abs(*num) >= kZoneLiteralLimit) continue;
    Result<int> idx = schema.Resolve(col->name());
    if (!idx.ok()) continue;
    ZoneTerm t;
    t.col = *idx;
    t.op = l_col != nullptr ? cmp->op() : FlipCmpOp(cmp->op());
    t.lit = *num;
    out->push_back(t);
  }
}

// True when the zone entry proves no row of the granule satisfies `t`.
bool GranuleRejected(const ZoneEntry& z, const ZoneTerm& t) {
  // NULL operands fail comparisons and IS NOT NULL alike.
  if (z.all_null) return true;
  if (t.not_null_only) return false;
  // No numeric range (e.g. a string column): nothing provable.
  if (!z.has_range) return false;
  switch (t.op) {
    case CmpOp::kEq:
      return t.lit < z.min || t.lit > z.max;
    case CmpOp::kNe:
      return false;
    case CmpOp::kLt:
      return z.min >= t.lit;
    case CmpOp::kLe:
      return z.min > t.lit;
    case CmpOp::kGt:
      return z.max <= t.lit;
    case CmpOp::kGe:
      return z.max < t.lit;
  }
  return false;
}

// THE base-table scan+filter of single-table blocks. Walks the mirror's
// granules — all of them, or only the zone map's `kept` list — in table
// order. Each granule charges its rows to the IoSim with one SeqRange
// (granules are whole pages, so the charges equal a row-at-a-time pass) and
// selects its survivors with the compiled predicate straight off the
// mirror's typed columns (or with the row BoundPredicate when `compiled` is
// null). No cell is copied: the result is referenced (DESIGN.md §8), one
// source (the mirror's granules, kept alive by the aliasing pointer) whose
// refs are the survivors' (granule, row), in table order, and whose output
// columns are `cols` (indices into `schema`) — cell-for-cell the row
// store's Values, by the mirror's contract. At one thread the granules run
// inline; otherwise ParallelForEach runs one slot per granule and the slots
// concatenate in order. Rows, row order and IoSim totals are therefore the
// same for every thread count and engine.
Result<Table> ScanFilter(const std::shared_ptr<const ColumnarMirror>& mirror,
                         const Schema& schema, const std::vector<int>& cols,
                         const Expr* pred, const VectorizedPredicate* compiled,
                         const std::vector<int64_t>* kept, int num_threads,
                         ProfiledOperator* op_out) {
  BoundPredicate bound;
  if (pred != nullptr && compiled == nullptr) {
    NESTRA_ASSIGN_OR_RETURN(bound, BoundPredicate::Make(pred, schema));
  }
  const Table* table = mirror->table();
  const std::vector<Row>& rows = table->rows();
  const int64_t units = kept != nullptr ? static_cast<int64_t>(kept->size())
                                        : mirror->num_granules();
  const auto granule_of = [&](int64_t k) {
    return kept != nullptr ? (*kept)[static_cast<size_t>(k)] : k;
  };
  std::vector<IoSim::RangeCounts> io(static_cast<size_t>(units));
  // Appends the refs of the k-th walked granule's survivors to `dst`.
  const auto scan_granule = [&](int64_t k, std::vector<int32_t>* sel,
                                std::vector<uint64_t>* dst) {
    const int64_t g = granule_of(k);
    const int64_t begin = mirror->GranuleBegin(g);
    const int64_t end = mirror->GranuleEnd(g);
    if (IoSim* sim = IoSim::Get()) {
      io[static_cast<size_t>(k)] = sim->SeqRange(table, begin, end);
    }
    sel->clear();
    if (pred == nullptr) {
      for (int64_t i = begin; i < end; ++i) {
        sel->push_back(static_cast<int32_t>(i - begin));
      }
    } else if (compiled != nullptr) {
      compiled->Select(mirror->granule(g), sel);
    } else {
      for (int64_t i = begin; i < end; ++i) {
        if (bound.Matches(rows[static_cast<size_t>(i)])) {
          sel->push_back(static_cast<int32_t>(i - begin));
        }
      }
    }
    for (const int32_t r : *sel) {
      dst->push_back(PackRowRef(static_cast<size_t>(g), r));
    }
  };
  int64_t scanned_rows = 0;
  for (int64_t k = 0; k < units; ++k) {
    const int64_t g = granule_of(k);
    scanned_rows += mirror->GranuleEnd(g) - mirror->GranuleBegin(g);
  }
  RowRefs refs;
  refs.sources.emplace_back(mirror, &mirror->granules());
  std::vector<uint64_t>& survivors = refs.refs.emplace_back();
  for (const int c : cols) refs.columns.push_back({0, c});
  if (num_threads <= 1) {
    std::vector<int32_t> sel;
    for (int64_t k = 0; k < units; ++k) scan_granule(k, &sel, &survivors);
  } else {
    std::vector<std::vector<uint64_t>> slots(static_cast<size_t>(units));
    ParallelForEach(units, num_threads, [&](int64_t k) {
      std::vector<int32_t> sel;
      scan_granule(k, &sel, &slots[static_cast<size_t>(k)]);
    });
    for (const std::vector<uint64_t>& slot : slots) {
      survivors.insert(survivors.end(), slot.begin(), slot.end());
    }
  }
  Table out(schema.Select(cols), std::move(refs));
  if (kept != nullptr && telemetry::MetricsEnabled()) {
    const telemetry::EngineMetrics& m = telemetry::Metrics();
    m.zone_granules_scanned_total->Add(static_cast<double>(units));
    m.zone_granules_pruned_total->Add(
        static_cast<double>(mirror->num_granules() - units));
  }
  if (op_out != nullptr) {
    op_out->name = "ScanFilter";
    op_out->detail = "granules=" + std::to_string(units) + "/" +
                     std::to_string(mirror->num_granules());
    if (pred != nullptr && compiled == nullptr) op_out->detail += " row-pred";
    op_out->phase = QueryPhase::kUnnestJoin;
    op_out->rows_in = scanned_rows;
    op_out->stats.rows_out = out.num_rows();
    op_out->stats.batches_out = units;
    for (const IoSim::RangeCounts& counts : io) {
      op_out->stats.io_hits += counts.hits;
      op_out->stats.io_seq_misses += counts.seq_misses;
      op_out->stats.io_random_misses += counts.random_misses;
    }
  }
  return out;
}

// Indices of `columns` in `schema`, in order.
Result<std::vector<int>> ResolveColumns(
    const Schema& schema, const std::vector<std::string>& columns) {
  std::vector<int> indices;
  indices.reserve(columns.size());
  for (const std::string& c : columns) {
    NESTRA_ASSIGN_OR_RETURN(int idx, schema.Resolve(c));
    indices.push_back(idx);
  }
  return indices;
}

// True when `columns` names exactly `schema`'s fields in order, so the
// projection onto them is the identity and is skipped.
bool ListsSchema(const std::vector<std::string>& columns,
                 const Schema& schema) {
  if (static_cast<int>(columns.size()) != schema.num_fields()) return false;
  for (int i = 0; i < schema.num_fields(); ++i) {
    if (columns[static_cast<size_t>(i)] != schema.field(i).name) return false;
  }
  return true;
}

// Zone-map pruning pays off on big tables; below this many granules the
// whole scan fits a few pages anyway and plan stability matters more (the
// gate keeps every tier-1 test workload on the byte-identical unpruned
// paths, same reasoning as kCostMinJoinRows).
constexpr int64_t kMinPruneGranules = 8;

// Zone-map pruning: fills `kept` with the granules the local conjuncts
// cannot rule out and returns true when that skips at least one. Tables
// below kMinPruneGranules never prune.
bool KeepGranules(const std::vector<ExprPtr>& conjuncts, const Schema& schema,
                  const TableZoneMap& zones, std::vector<int64_t>* kept) {
  if (zones.num_granules < kMinPruneGranules) return false;
  std::vector<ZoneTerm> terms;
  CollectZoneTerms(conjuncts, schema, &terms);
  if (terms.empty()) return false;
  for (int64_t gi = 0; gi < zones.num_granules; ++gi) {
    bool keep = true;
    for (const ZoneTerm& t : terms) {
      if (GranuleRejected(zones.At(gi, t.col), t)) {
        keep = false;
        break;
      }
    }
    if (keep) kept->push_back(gi);
  }
  return static_cast<int64_t>(kept->size()) < zones.num_granules;
}

}  // namespace

Result<Table> ParallelFilterTable(Table in, const Expr* pred,
                                  int num_threads,
                                  const std::vector<std::string>* columns) {
  NESTRA_ASSIGN_OR_RETURN(BoundPredicate bound,
                          BoundPredicate::Make(pred, in.schema()));
  std::vector<int> keep;
  if (columns != nullptr) {
    NESTRA_ASSIGN_OR_RETURN(keep, ResolveColumns(in.schema(), *columns));
  }
  Table out{columns != nullptr ? in.schema().Select(keep) : in.schema()};
  const int64_t n = static_cast<int64_t>(in.rows().size());
  // Morsels keep row order: slot m holds the survivors of rows
  // [m*chunk, (m+1)*chunk), concatenated in morsel order below.
  std::vector<std::vector<Row>> slots(
      static_cast<size_t>(MorselCount(n, num_threads)));
  ParallelForMorsels(n, num_threads, [&](int64_t morsel, int64_t begin,
                                         int64_t end) {
    std::vector<Row>& slot = slots[static_cast<size_t>(morsel)];
    for (int64_t i = begin; i < end; ++i) {
      Row& r = in.rows()[static_cast<size_t>(i)];
      if (!bound.Matches(r)) continue;
      slot.push_back(columns != nullptr ? r.Select(keep) : std::move(r));
    }
  });
  for (std::vector<Row>& slot : slots) {
    for (Row& r : slot) out.AppendUnchecked(std::move(r));
  }
  return out;
}

Result<Table> EvalBlockBase(const QueryBlock& block, const Catalog& catalog,
                            const std::vector<std::string>& columns,
                            int num_threads, QueryProfile* profile,
                            bool vectorized, bool two_valued,
                            bool cost_based) {
  // Split local conjuncts once; they are attached to the first join where
  // both sides are available, remaining ones become a final filter.
  std::vector<ExprPtr> conjuncts;
  if (block.local_pred != nullptr) {
    conjuncts = SplitConjunction(block.local_pred->Clone());
  }

  if (block.tables.size() == 1) {
    // Single-table block: the fused ScanFilter over the columnar mirror, for
    // every engine combination except the one-thread row engine, whose
    // ScanNode/FilterNode pipeline below stays as the oracle. Zone-map
    // pruning, when cost-based stats prove some granules cannot contribute,
    // goes through ScanFilter for every combination, so pruned rows and
    // IoSim charges are identical across threads and engines.
    const QueryBlock::TableRef& ref = block.tables[0];
    NESTRA_ASSIGN_OR_RETURN(const std::shared_ptr<const ColumnarMirror> mirror,
                            catalog.GetMirror(ref.table));
    const Table* table = mirror->table();
    const Schema schema = ref.alias.empty()
                              ? table->schema()
                              : table->schema().Qualify(ref.alias);
    std::vector<int64_t> kept;
    bool pruned = false;
    if (cost_based && !conjuncts.empty()) {
      const Result<const TableStats*> stats = catalog.GetStats(ref.table);
      pruned = stats.ok() && KeepGranules(conjuncts, schema, (*stats)->zones,
                                          &kept);
    }
    if (pruned || num_threads > 1 || vectorized) {
      const ExprPtr pred =
          conjuncts.empty() ? nullptr : MakeAnd(std::move(conjuncts));
      VectorizedPredicate vpred;
      bool compiled = false;
      if (two_valued) {
        // Proven-2VL fast path: columns the catalog proves non-NULL
        // (declared NOT NULL or scanned NULL-free at registration) compile
        // to kernels with no per-value NULL loads. Tables are immutable once
        // registered, so the proof cannot be invalidated under us.
        std::vector<bool> non_null(static_cast<size_t>(schema.num_fields()),
                                   false);
        for (int i = 0; i < schema.num_fields(); ++i) {
          non_null[static_cast<size_t>(i)] = catalog.ProvenNotNull(
              ref.table, table->schema().fields()[i].name);
        }
        compiled =
            VectorizedPredicate::Compile(pred.get(), schema, non_null, &vpred);
      } else {
        compiled = VectorizedPredicate::Compile(pred.get(), schema, &vpred);
      }
      NESTRA_ASSIGN_OR_RETURN(const std::vector<int> cols,
                              ResolveColumns(schema, columns));
      StageTimer timer(profile, QueryPhase::kUnnestJoin, BlockLabel(block));
      ProfiledOperator op;
      NESTRA_ASSIGN_OR_RETURN(
          Table out, ScanFilter(mirror, schema, cols, pred.get(),
                                compiled ? &vpred : nullptr,
                                pruned ? &kept : nullptr, num_threads,
                                timer.active() ? &op : nullptr));
      NESTRA_RETURN_NOT_OK(FoldStageMem(&timer, TableBytes(out)));
      timer.Finish(out.num_rows(), std::move(op));
      return out;
    }
  }

  ExecNodePtr node;
  for (const QueryBlock::TableRef& ref : block.tables) {
    NESTRA_ASSIGN_OR_RETURN(const Table* table, catalog.GetTable(ref.table));
    auto scan = std::make_unique<ScanNode>(table, ref.alias);
    if (node == nullptr) {
      node = std::move(scan);
    } else {
      // Pull in every conjunct that binds against (node ++ scan).
      const Schema combined =
          Schema::Concat(node->output_schema(), scan->output_schema());
      std::vector<ExprPtr> usable;
      std::vector<ExprPtr> rest;
      for (ExprPtr& c : conjuncts) {
        if (ReferencesOnly(*c, combined)) {
          usable.push_back(std::move(c));
        } else {
          rest.push_back(std::move(c));
        }
      }
      conjuncts = std::move(rest);
      JoinCondition cond = DecomposeJoinCondition(
          std::move(usable), node->output_schema(), scan->output_schema());
      JoinBuildHints hints;
      if (cost_based && cond.equi.size() == 1) {
        // The build side is the freshly scanned `ref`; its single key column
        // arrives qualified by the alias, which the stats lookup strips.
        std::string key = cond.equi[0].right;
        if (!ref.alias.empty() &&
            key.rfind(ref.alias + ".", 0) == 0) {
          key = key.substr(ref.alias.size() + 1);
        }
        hints = ChoosesScanJoinStrategy(catalog, ref, key);
      }
      node = std::make_unique<HashJoinNode>(
          std::move(node), std::move(scan), JoinType::kInner,
          std::move(cond.equi), std::move(cond.residual), num_threads,
          vectorized, hints);
    }
  }
  if (!conjuncts.empty() && num_threads > 1) {
    // Multi-table block with leftover conjuncts: the join tree drains
    // serially (Next is a serial protocol; its hash joins parallelize
    // internally), then the materialized rows filter in parallel morsels.
    StageTimer timer(profile, QueryPhase::kUnnestJoin, BlockLabel(block));
    if (timer.active()) {
      node->SetPhaseRecursive(QueryPhase::kUnnestJoin);
      node->EnableTimingRecursive();
    }
    int64_t scanned_bytes = 0;
    NESTRA_ASSIGN_OR_RETURN(
        Table scanned, CollectTable(node.get(), vectorized, &scanned_bytes));
    FlushOperatorMetrics(*node);
    ProfiledOperator tree;
    if (timer.active()) tree = ProfiledOperator::Snapshot(*node);
    const ExprPtr pred = MakeAnd(std::move(conjuncts));
    // Stage peak: operator charges plus the drained intermediate, which is
    // still live while the parallel filter builds its output.
    const int64_t tree_peak = TreePeakMemBytes(*node) + scanned_bytes;
    const bool project = !ListsSchema(columns, scanned.schema());
    NESTRA_ASSIGN_OR_RETURN(
        Table out, ParallelFilterTable(std::move(scanned), pred.get(),
                                       num_threads,
                                       project ? &columns : nullptr));
    const int64_t out_bytes = TableBytes(out);
    NESTRA_RETURN_NOT_OK(FoldStageMem(&timer, out_bytes, tree_peak + out_bytes));
    if (timer.active()) {
      ProfiledOperator wrapper;
      wrapper.name = "ParallelFilter";
      wrapper.phase = QueryPhase::kUnnestJoin;
      wrapper.rows_in = tree.stats.rows_out;
      wrapper.stats.rows_out = out.num_rows();
      wrapper.children.push_back(std::move(tree));
      timer.Finish(out.num_rows(), std::move(wrapper));
    } else {
      timer.Finish(out.num_rows());
    }
    return out;
  }
  if (!conjuncts.empty()) {
    node = std::make_unique<FilterNode>(std::move(node),
                                        MakeAnd(std::move(conjuncts)));
  }
  if (!ListsSchema(columns, node->output_schema())) {
    node = std::make_unique<ProjectNode>(std::move(node), columns);
  }
  return CollectProfiled(node.get(), QueryPhase::kUnnestJoin,
                         BlockLabel(block), profile, vectorized);
}

ExprPtr CloneCorrelatedPreds(const QueryBlock& child) {
  if (child.correlated_preds.empty()) return nullptr;
  std::vector<ExprPtr> copies;
  copies.reserve(child.correlated_preds.size());
  for (const ExprPtr& p : child.correlated_preds) {
    copies.push_back(p->Clone());
  }
  return MakeAnd(std::move(copies));
}

Result<Table> JoinWithChild(Table rel, Table child_base,
                            const QueryBlock& child, JoinType join_type,
                            ExprPtr extra_condition, int num_threads,
                            QueryProfile* profile, bool vectorized,
                            const JoinBuildHints& hints) {
  const std::string label = "join[b" + std::to_string(child.id) + "]";
  auto left = std::make_unique<TableSourceNode>(std::move(rel));
  auto right = std::make_unique<TableSourceNode>(std::move(child_base));

  std::vector<ExprPtr> conjuncts;
  if (ExprPtr corr = CloneCorrelatedPreds(child); corr != nullptr) {
    for (ExprPtr& c : SplitConjunction(std::move(corr))) {
      conjuncts.push_back(std::move(c));
    }
  }
  if (extra_condition != nullptr) {
    for (ExprPtr& c : SplitConjunction(std::move(extra_condition))) {
      conjuncts.push_back(std::move(c));
    }
  }

  if (conjuncts.empty()) {
    // Non-correlated subquery: virtual Cartesian product. A left outer
    // cross join keeps padding behaviour for empty subqueries.
    auto join = std::make_unique<NestedLoopJoinNode>(
        std::move(left), std::move(right), join_type, nullptr);
    return CollectProfiled(join.get(), QueryPhase::kUnnestJoin, label,
                           profile);
  }

  JoinCondition cond = DecomposeJoinCondition(
      std::move(conjuncts), left->output_schema(), right->output_schema());
  if (cond.equi.empty()) {
    // Pure theta correlation (e.g. only inequality predicates): the hash
    // join would degenerate to one bucket anyway; use the nested loop form
    // for clarity.
    auto join = std::make_unique<NestedLoopJoinNode>(
        std::move(left), std::move(right), join_type,
        std::move(cond.residual));
    return CollectProfiled(join.get(), QueryPhase::kUnnestJoin, label,
                           profile);
  }
  auto join = std::make_unique<HashJoinNode>(
      std::move(left), std::move(right), join_type, std::move(cond.equi),
      std::move(cond.residual), num_threads, vectorized, hints);
  return CollectProfiled(join.get(), QueryPhase::kUnnestJoin, label, profile,
                         vectorized);
}

Result<std::vector<const QueryBlock*>> LinearChain(const QueryBlock& root) {
  std::vector<const QueryBlock*> chain;
  const QueryBlock* node = &root;
  while (true) {
    chain.push_back(node);
    if (node->children.empty()) break;
    if (node->children.size() > 1) {
      return Status::InvalidArgument(
          "query is a tree query (block " + std::to_string(node->id) +
          " has " + std::to_string(node->children.size()) + " children)");
    }
    node = node->children[0].get();
  }
  return chain;
}

namespace {

AggFunc ToAggFunc(LinkAgg agg) {
  switch (agg) {
    case LinkAgg::kCount:
      return AggFunc::kCount;
    case LinkAgg::kCountStar:
      return AggFunc::kCountStar;
    case LinkAgg::kSum:
      return AggFunc::kSum;
    case LinkAgg::kMin:
      return AggFunc::kMin;
    case LinkAgg::kMax:
      return AggFunc::kMax;
    case LinkAgg::kAvg:
      return AggFunc::kAvg;
  }
  return AggFunc::kCount;
}

}  // namespace

Result<Table> FinalizeRootOutput(const QueryBlock& root, Table rel,
                                 const std::string& key_filter_attr,
                                 int num_threads, QueryProfile* profile,
                                 bool vectorized) {
  // One "finish" stage; the key filter runs over the columnar stage result
  // at every thread count (num_threads only reaches the sort).
  StageTimer timer(profile, QueryPhase::kPostProcessing, "finish");
  ExecNodePtr node = std::make_unique<TableSourceNode>(std::move(rel));
  if (!key_filter_attr.empty()) {
    node = std::make_unique<FilterNode>(std::move(node),
                                        IsNotNull(Col(key_filter_attr)));
  }
  if (root.IsGrouped()) {
    std::vector<AggSpec> aggs;
    aggs.reserve(root.aggregates.size());
    for (const QueryBlock::RootAgg& a : root.aggregates) {
      aggs.push_back({ToAggFunc(a.func), a.column, a.output_name});
    }
    node = std::make_unique<AggregateNode>(std::move(node), root.group_by,
                                           std::move(aggs));
    if (root.having != nullptr) {
      node = std::make_unique<FilterNode>(std::move(node),
                                          root.having->Clone());
    }
  }
  if (!root.order_by.empty()) {
    std::vector<SortKey> keys;
    keys.reserve(root.order_by.size());
    for (const QueryBlock::OrderItem& item : root.order_by) {
      keys.push_back({item.column, item.ascending});
    }
    node = std::make_unique<SortNode>(std::move(node), std::move(keys),
                                      num_threads, vectorized);
  }
  node = std::make_unique<ProjectNode>(std::move(node), root.select_list);
  if (root.distinct) {
    // DistinctNode emits first occurrences in input order, preserving the
    // sort above.
    node = std::make_unique<DistinctNode>(std::move(node));
  }
  if (root.limit >= 0) {
    node = std::make_unique<LimitNode>(std::move(node), root.limit);
  }
  if (timer.active()) {
    node->SetPhaseRecursive(QueryPhase::kPostProcessing);
    node->EnableTimingRecursive();
  }
  int64_t out_bytes = 0;
  NESTRA_ASSIGN_OR_RETURN(Table out,
                          CollectTable(node.get(), vectorized, &out_bytes));
  // Stage results stay columnar inside the engine; the query result that
  // leaves it is always row-bodied.
  out.rows();
  FlushOperatorMetrics(*node);
  NESTRA_RETURN_NOT_OK(
      FoldStageMem(&timer, out_bytes, TreePeakMemBytes(*node) + out_bytes));
  if (timer.active()) {
    timer.Finish(out.num_rows(), ProfiledOperator::Snapshot(*node));
  } else {
    timer.Finish(out.num_rows());
  }
  return out;
}

bool AllEquiCorrelation(const QueryBlock& child, const Schema& outer_schema,
                        const Schema& child_schema,
                        std::vector<std::string>* outer_cols,
                        std::vector<std::string>* child_cols) {
  outer_cols->clear();
  child_cols->clear();
  if (child.correlated_preds.empty()) return false;
  for (const ExprPtr& p : child.correlated_preds) {
    const auto* cmp = dynamic_cast<const Comparison*>(p.get());
    if (cmp == nullptr || cmp->op() != CmpOp::kEq) return false;
    const auto* l = dynamic_cast<const ColumnRef*>(&cmp->lhs());
    const auto* r = dynamic_cast<const ColumnRef*>(&cmp->rhs());
    if (l == nullptr || r == nullptr) return false;
    const bool l_outer = outer_schema.Resolve(l->name()).ok();
    const bool l_child = child_schema.Resolve(l->name()).ok();
    const bool r_outer = outer_schema.Resolve(r->name()).ok();
    const bool r_child = child_schema.Resolve(r->name()).ok();
    if (l_outer && !l_child && r_child && !r_outer) {
      outer_cols->push_back(l->name());
      child_cols->push_back(r->name());
    } else if (r_outer && !r_child && l_child && !l_outer) {
      outer_cols->push_back(r->name());
      child_cols->push_back(l->name());
    } else {
      return false;
    }
  }
  return true;
}

}  // namespace nestra
