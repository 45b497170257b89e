#include "plan/stats/estimator.h"

#include <algorithm>
#include <cmath>
#include <set>

#include "expr/expr.h"
#include "storage/table_stats.h"

namespace nestra {

namespace {

std::string Qualify(const std::string& alias, const std::string& column) {
  return alias.empty() ? column : alias + "." + column;
}

ColumnEstimate FromStats(const ColumnStats& s, int64_t table_rows) {
  ColumnEstimate e;
  e.has_range = s.has_range;
  e.min = s.min;
  e.max = s.max;
  e.integer_only = s.integer_only;
  e.min_i64 = s.min_i64;
  e.max_i64 = s.max_i64;
  e.distinct = static_cast<double>(s.distinct);
  e.null_frac =
      table_rows > 0 ? static_cast<double>(s.null_count) / table_rows : 0.0;
  return e;
}

void CollectConjuncts(const Expr* e, std::vector<const Expr*>* out) {
  if (const auto* a = dynamic_cast<const AndExpr*>(e)) {
    for (const ExprPtr& c : a->children()) CollectConjuncts(c.get(), out);
    return;
  }
  out->push_back(e);
}

// Selectivity of every predicate shape we cannot model.
constexpr double kDefaultSelectivity = 1.0 / 3.0;

double ClampFraction(double f) { return std::min(1.0, std::max(0.0, f)); }

// Fraction of a column's non-NULL values satisfying `col op lit`, by linear
// interpolation over the column's [min, max]; narrows the column's range
// bounds for kEq and the inequalities (sound: the surviving rows really lie
// in the narrowed interval).
double RangeSelectivity(CmpOp op, double lit, ColumnEstimate* col) {
  if (!col->has_range) return kDefaultSelectivity;
  const double lo = col->min;
  const double hi = col->max;
  const double width = hi - lo;
  double sel = kDefaultSelectivity;
  switch (op) {
    case CmpOp::kEq:
      if (lit < lo || lit > hi) return 0.0;
      sel = col->distinct > 0 ? 1.0 / col->distinct : kDefaultSelectivity;
      col->min = col->max = lit;
      if (col->integer_only) {
        col->min_i64 = col->max_i64 = static_cast<int64_t>(lit);
      }
      col->distinct = 1.0;
      break;
    case CmpOp::kNe:
      sel = col->distinct > 0 ? 1.0 - 1.0 / col->distinct : 1.0;
      break;
    case CmpOp::kLt:
    case CmpOp::kLe:
      if (lit < lo) return 0.0;
      sel = width > 0 ? ClampFraction((lit - lo) / width) : 1.0;
      col->max = std::min(col->max, lit);
      if (col->integer_only) {
        col->max_i64 = std::min(
            col->max_i64, static_cast<int64_t>(std::floor(lit)));
      }
      break;
    case CmpOp::kGt:
    case CmpOp::kGe:
      if (lit > hi) return 0.0;
      sel = width > 0 ? ClampFraction((hi - lit) / width) : 1.0;
      col->min = std::max(col->min, lit);
      if (col->integer_only) {
        col->min_i64 = std::max(
            col->min_i64, static_cast<int64_t>(std::ceil(lit)));
      }
      break;
  }
  return sel;
}

// Selectivity of one conjunct against the relation's columns, narrowing
// ranges in place. NULL operands fail every comparison, so literal terms
// carry a (1 - null_frac) factor.
double ConjunctSelectivity(const Expr* e,
                           std::map<std::string, ColumnEstimate>* columns) {
  if (const auto* is_null = dynamic_cast<const IsNullExpr*>(e)) {
    const auto* col = dynamic_cast<const ColumnRef*>(&is_null->child());
    if (col == nullptr) return kDefaultSelectivity;
    const auto it = columns->find(col->name());
    if (it == columns->end()) return kDefaultSelectivity;
    double sel = is_null->negated() ? 1.0 - it->second.null_frac
                                    : it->second.null_frac;
    if (is_null->negated()) it->second.null_frac = 0.0;
    return ClampFraction(sel);
  }
  const auto* cmp = dynamic_cast<const Comparison*>(e);
  if (cmp == nullptr) return kDefaultSelectivity;

  const auto* l_col = dynamic_cast<const ColumnRef*>(&cmp->lhs());
  const auto* r_col = dynamic_cast<const ColumnRef*>(&cmp->rhs());

  if (l_col != nullptr && r_col != nullptr && cmp->op() == CmpOp::kEq) {
    // Intra-block equi join: 1 / max ndv, the textbook containment rule.
    const auto li = columns->find(l_col->name());
    const auto ri = columns->find(r_col->name());
    if (li == columns->end() || ri == columns->end()) {
      return kDefaultSelectivity;
    }
    const double d = std::max(li->second.distinct, ri->second.distinct);
    return d > 0 ? 1.0 / d : kDefaultSelectivity;
  }

  const ColumnRef* col = l_col != nullptr ? l_col : r_col;
  if (col == nullptr) return kDefaultSelectivity;
  const Value* lit =
      BoundConstant(l_col != nullptr ? cmp->rhs() : cmp->lhs());
  if (lit == nullptr) return kDefaultSelectivity;
  const auto num = lit->AsDouble();
  if (!num.has_value()) return kDefaultSelectivity;
  const auto it = columns->find(col->name());
  if (it == columns->end()) return kDefaultSelectivity;
  // Normalize to `col op lit`.
  const CmpOp op = l_col != nullptr ? cmp->op() : FlipCmpOp(cmp->op());
  const double not_null = 1.0 - it->second.null_frac;
  return ClampFraction(RangeSelectivity(op, *num, &it->second) * not_null);
}

}  // namespace

RelEstimate EstimateBlockBase(const QueryBlock& block, const Catalog& catalog) {
  RelEstimate rel;
  rel.rows = 1.0;
  rel.max_rows = 1.0;
  for (const QueryBlock::TableRef& ref : block.tables) {
    Result<const TableStats*> stats = catalog.GetStats(ref.table);
    if (!stats.ok()) return RelEstimate{};
    const TableStats& s = **stats;
    Result<const Table*> table = catalog.GetTable(ref.table);
    if (!table.ok()) return RelEstimate{};
    const Schema& schema = (*table)->schema();
    rel.rows *= static_cast<double>(s.row_count);
    rel.max_rows *= static_cast<double>(s.row_count);
    for (size_t c = 0; c < s.columns.size(); ++c) {
      rel.columns[Qualify(ref.alias, schema.fields()[c].name)] =
          FromStats(s.columns[c], s.row_count);
    }
  }
  if (block.local_pred != nullptr) {
    std::vector<const Expr*> conjuncts;
    CollectConjuncts(block.local_pred.get(), &conjuncts);
    for (const Expr* e : conjuncts) {
      rel.rows *= ConjunctSelectivity(e, &rel.columns);
    }
  }
  rel.known = true;
  return rel;
}

bool EquiCorrelationPairs(const QueryBlock& child,
                          std::vector<CorrelationPair>* out) {
  out->clear();
  if (child.correlated_preds.empty()) return false;
  const std::set<std::string> own(child.attributes.begin(),
                                  child.attributes.end());
  for (const ExprPtr& p : child.correlated_preds) {
    const auto* cmp = dynamic_cast<const Comparison*>(p.get());
    if (cmp == nullptr || cmp->op() != CmpOp::kEq) return false;
    const auto* l = dynamic_cast<const ColumnRef*>(&cmp->lhs());
    const auto* r = dynamic_cast<const ColumnRef*>(&cmp->rhs());
    if (l == nullptr || r == nullptr) return false;
    const bool l_own = own.count(l->name()) > 0;
    const bool r_own = own.count(r->name()) > 0;
    if (l_own == r_own) return false;
    out->push_back(l_own ? CorrelationPair{r->name(), l->name()}
                         : CorrelationPair{l->name(), r->name()});
  }
  return true;
}

double EstimateJoinFanout(const RelEstimate& child_base,
                          const QueryBlock& child) {
  std::vector<CorrelationPair> pairs;
  if (!EquiCorrelationPairs(child, &pairs)) return child_base.rows;
  double fanout = child_base.rows;
  for (const CorrelationPair& pair : pairs) {
    const auto it = child_base.columns.find(pair.child_col);
    const double d = it != child_base.columns.end() ? it->second.distinct : 0;
    if (d > 0) fanout /= d;
  }
  return fanout;
}

RelEstimate EstimateOuterJoin(const RelEstimate& outer,
                              const RelEstimate& block_base,
                              const QueryBlock& block) {
  RelEstimate joined;
  if (!outer.known || !block_base.known) return joined;
  joined.known = true;
  joined.rows =
      outer.rows * std::max(EstimateJoinFanout(block_base, block), 1.0);
  joined.max_rows = outer.max_rows * std::max(block_base.max_rows, 1.0);
  return joined;
}

namespace {

// Shared "is the join intermediate worth avoiding" test behind both rewrite
// gates: the estimated left-outer-join result must clear kCostMinJoinRows
// and actually be wider than the outer input (fanout >= 2).
bool JoinIntermediateIsLarge(const QueryBlock& child, const RelEstimate& outer,
                             const RelEstimate& base) {
  if (!outer.known || !base.known) return false;
  const double fanout = EstimateJoinFanout(base, child);
  if (fanout < 2.0) return false;
  return outer.rows * std::max(fanout, 1.0) >= kCostMinJoinRows;
}

// Perfect-keying eligibility of one build-side key column estimate given
// the estimated build cardinality; fills the dense bounds on success.
bool PerfectKeyEligible(const ColumnEstimate& key, double build_rows,
                        JoinBuildHints* hints) {
  if (!key.integer_only || !key.has_range) return false;
  if (key.max_i64 < key.min_i64) return false;
  // Span arithmetic can overflow for extreme ranges; bail out well before.
  const double span_d = static_cast<double>(key.max_i64) -
                        static_cast<double>(key.min_i64) + 1.0;
  if (span_d > static_cast<double>(kPerfectMaxSpan)) return false;
  if (span_d > kPerfectMaxSparsity * std::max(build_rows, 16.0)) return false;
  hints->perfect = true;
  hints->perfect_min = key.min_i64;
  hints->perfect_max = key.max_i64;
  return true;
}

}  // namespace

bool CostGatesSemijoinRewrite(const QueryBlock& child,
                              const RelEstimate& outer,
                              const RelEstimate& child_base) {
  return JoinIntermediateIsLarge(child, outer, child_base);
}

bool CostGatesNestPushDown(const QueryBlock& child, const RelEstimate& outer,
                           const RelEstimate& child_base) {
  return JoinIntermediateIsLarge(child, outer, child_base);
}

JoinBuildHints ChoosesJoinStrategy(const QueryBlock& child,
                                   const RelEstimate& outer,
                                   const RelEstimate& base) {
  JoinBuildHints hints;
  if (!outer.known || !base.known) return hints;
  hints.est_left_rows = outer.rows;
  hints.est_right_rows = base.rows;

  // The build side is always the child base (right). Perfect keying needs
  // exactly one equality correlation — a second equi key (e.g. the IN
  // rewrite's A = B term) keys on tuples, not integers.
  std::vector<CorrelationPair> pairs;
  if (EquiCorrelationPairs(child, &pairs) && pairs.size() == 1) {
    const auto it = base.columns.find(pairs[0].child_col);
    if (it != base.columns.end() && base.rows >= kCostMinBuildRows) {
      PerfectKeyEligible(it->second, base.rows, &hints);
    }
  }
  return hints;
}

JoinBuildHints ChoosesJoinStrategy(const QueryBlock& child,
                                   const std::vector<const QueryBlock*>& path,
                                   const Catalog& catalog) {
  RelEstimate outer;
  for (size_t k = 0; k < path.size(); ++k) {
    const RelEstimate base = EstimateBlockBase(*path[k], catalog);
    outer = k == 0 ? base : EstimateOuterJoin(outer, base, *path[k]);
  }
  return ChoosesJoinStrategy(child, outer, EstimateBlockBase(child, catalog));
}

JoinBuildHints ChoosesScanJoinStrategy(const Catalog& catalog,
                                       const QueryBlock::TableRef& ref,
                                       const std::string& key_column) {
  JoinBuildHints hints;
  Result<const TableStats*> stats = catalog.GetStats(ref.table);
  if (!stats.ok()) return hints;
  const TableStats& s = **stats;
  Result<const Table*> table = catalog.GetTable(ref.table);
  if (!table.ok()) return hints;
  const int col = (*table)->schema().IndexOfExact(key_column);
  if (col < 0) return hints;
  const double rows = static_cast<double>(s.row_count);
  hints.est_right_rows = rows;
  if (rows < kCostMinBuildRows) return hints;
  PerfectKeyEligible(FromStats(s.columns[static_cast<size_t>(col)],
                               s.row_count),
                     rows, &hints);
  return hints;
}

}  // namespace nestra
