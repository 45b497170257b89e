#include "verify/properties.h"

#include <algorithm>
#include <sstream>

namespace nestra {

const char* NullabilityToString(Nullability n) {
  switch (n) {
    case Nullability::kNullable:
      return "nullable";
    case Nullability::kNonNull:
      return "non-null";
    case Nullability::kAlwaysNull:
      return "always-null";
  }
  return "?";
}

const char* CardBoundToString(CardBound c) {
  switch (c) {
    case CardBound::kZero:
      return "0";
    case CardBound::kAtMostOne:
      return "<=1";
    case CardBound::kMany:
      return "many";
  }
  return "?";
}

bool BlockProperties::NonNull(const std::string& attr) const {
  const auto it = attrs.find(attr);
  return it != attrs.end() && it->second.nullability == Nullability::kNonNull;
}

bool BlockProperties::AlwaysNull(const std::string& attr) const {
  const auto it = attrs.find(attr);
  return it != attrs.end() &&
         it->second.nullability == Nullability::kAlwaysNull;
}

std::string BlockProperties::ToString() const {
  const auto render = [&](Nullability n) {
    std::ostringstream os;
    bool first = true;
    for (const std::string& a : attr_order) {
      const auto it = attrs.find(a);
      if (it == attrs.end() || it->second.nullability != n) continue;
      if (!first) os << ", ";
      os << a;
      first = false;
    }
    return os.str();
  };
  std::ostringstream os;
  os << "non-null={" << render(Nullability::kNonNull) << "} nullable={"
     << render(Nullability::kNullable) << "}";
  const std::string always = render(Nullability::kAlwaysNull);
  if (!always.empty()) os << " always-null={" << always << "}";
  os << " keys={";
  for (size_t k = 0; k < keys.size(); ++k) {
    if (k > 0) os << ", ";
    if (keys[k].size() > 1) os << "(";
    for (size_t i = 0; i < keys[k].size(); ++i) {
      if (i > 0) os << ", ";
      os << keys[k][i];
    }
    if (keys[k].size() > 1) os << ")";
  }
  os << "} card=" << CardBoundToString(card);
  return os.str();
}

namespace {

// Comparability classes of Value::Compare: kInt64/kFloat64/kDate compare
// numerically among themselves (dates are stored as int64 day numbers);
// strings only compare to strings. A cross-class comparison is always
// UNKNOWN.
enum class CmpClass { kNumeric, kString };

CmpClass ClassOfType(TypeId t) {
  return t == TypeId::kString ? CmpClass::kString : CmpClass::kNumeric;
}

CmpClass ClassOfValue(const Value& v) {
  return v.is_string() ? CmpClass::kString : CmpClass::kNumeric;
}

// Flattens a conjunction into its leaf conjuncts (no clone; borrowed refs).
void CollectConjuncts(const Expr& e, std::vector<const Expr*>* out) {
  if (const auto* conj = dynamic_cast<const AndExpr*>(&e)) {
    for (const ExprPtr& c : conj->children()) CollectConjuncts(*c, out);
    return;
  }
  out->push_back(&e);
}

struct TransferState {
  BlockProperties* props;
  /// Set when some conjunct is provably never-TRUE (always UNKNOWN or
  /// contradicted), making the qualifying set empty.
  bool provably_empty = false;
};

// Applies one conjunct's facts to the block attributes it references.
// Attributes of other blocks (correlated sides) are simply absent from
// `props->attrs` and ignored. SQL filter semantics keep a row only when the
// conjunct is TRUE, so: a comparison proves its column operands non-NULL
// (UNKNOWN never qualifies); IS NULL proves always-NULL; IS NOT NULL proves
// non-NULL; a comparison against a NULL constant (a literal or a bound
// parameter; see BoundConstant), between incomparable classes, or over an
// always-NULL attribute is never TRUE.
void TransferConjunct(const Expr& e, TransferState* state) {
  BlockProperties& props = *state->props;
  if (const auto* cmp = dynamic_cast<const Comparison*>(&e)) {
    const Expr* sides[2] = {&cmp->lhs(), &cmp->rhs()};
    CmpClass classes[2];
    bool known[2] = {false, false};
    for (int i = 0; i < 2; ++i) {
      if (const auto* col = dynamic_cast<const ColumnRef*>(sides[i])) {
        const auto it = props.attrs.find(col->name());
        if (it == props.attrs.end()) continue;  // other block's attribute
        if (it->second.nullability == Nullability::kAlwaysNull) {
          state->provably_empty = true;
        } else {
          it->second.nullability = Nullability::kNonNull;
        }
        classes[i] = ClassOfType(it->second.type);
        known[i] = true;
      } else if (const Value* lit = BoundConstant(*sides[i])) {
        if (lit->is_null()) {
          state->provably_empty = true;
          continue;
        }
        classes[i] = ClassOfValue(*lit);
        known[i] = true;
      }
    }
    if (known[0] && known[1] && classes[0] != classes[1]) {
      state->provably_empty = true;
    }
    return;
  }
  if (const auto* isnull = dynamic_cast<const IsNullExpr*>(&e)) {
    const auto* col = dynamic_cast<const ColumnRef*>(&isnull->child());
    if (col == nullptr) return;
    const auto it = props.attrs.find(col->name());
    if (it == props.attrs.end()) return;
    if (isnull->negated()) {
      // IS NOT NULL: a NULL value never qualifies.
      if (it->second.nullability == Nullability::kAlwaysNull) {
        state->provably_empty = true;
      } else {
        it->second.nullability = Nullability::kNonNull;
      }
    } else {
      // IS NULL: a non-NULL value never qualifies.
      if (it->second.nullability == Nullability::kNonNull) {
        state->provably_empty = true;
      } else {
        it->second.nullability = Nullability::kAlwaysNull;
      }
    }
  }
}

// "k = <constant>" or "k = other-block column": equality conjuncts that pin
// one attribute per outer binding. Collects the pinned local attributes.
void CollectPinnedAttrs(const Expr& e, const BlockProperties& props,
                        std::set<std::string>* pinned) {
  const auto* cmp = dynamic_cast<const Comparison*>(&e);
  if (cmp == nullptr || cmp->op() != CmpOp::kEq) return;
  const Expr* sides[2] = {&cmp->lhs(), &cmp->rhs()};
  for (int i = 0; i < 2; ++i) {
    const auto* col = dynamic_cast<const ColumnRef*>(sides[i]);
    if (col == nullptr || props.attrs.count(col->name()) == 0) continue;
    const Expr* other = sides[1 - i];
    const bool other_is_literal = BoundConstant(*other) != nullptr;
    const auto* other_col = dynamic_cast<const ColumnRef*>(other);
    const bool other_is_outer =
        other_col != nullptr && props.attrs.count(other_col->name()) == 0;
    if (other_is_literal || other_is_outer) pinned->insert(col->name());
  }
}

}  // namespace

bool PropertyAnalyzer::BaseNonNull(const std::string& table,
                                   const std::string& column) const {
  return declared_only_ ? catalog_.IsNotNull(table, column)
                        : catalog_.ProvenNotNull(table, column);
}

BlockProperties PropertyAnalyzer::Analyze(const QueryBlock& block) const {
  BlockProperties props;
  props.block_id = block.id;
  // Seed from the catalog schemas and constraints.
  bool all_tables_keyed = !block.tables.empty();
  std::vector<std::string> compound_key;
  for (const QueryBlock::TableRef& ref : block.tables) {
    const Result<const Table*> table = catalog_.GetTable(ref.table);
    if (!table.ok()) continue;  // unresolved table: schema-resolve's job
    const Result<const TableMetadata*> meta = catalog_.GetMetadata(ref.table);
    for (const Field& f : (*table)->schema().fields()) {
      const std::string qualified = ref.alias + "." + f.name;
      AttributeProps ap;
      ap.type = f.type;
      ap.nullability = BaseNonNull(ref.table, f.name) ? Nullability::kNonNull
                                                      : Nullability::kNullable;
      props.attrs.emplace(qualified, ap);
      props.attr_order.push_back(qualified);
    }
    if (meta.ok() && !(*meta)->primary_key.empty()) {
      compound_key.push_back(ref.alias + "." + (*meta)->primary_key);
    } else {
      all_tables_keyed = false;
    }
  }
  if (all_tables_keyed) props.keys.push_back(compound_key);

  // Transfer the local predicate and the correlated predicates: both run
  // before the linking selection, and an UNKNOWN conjunct excludes the row
  // from every group / qualifying set.
  TransferState state{&props, false};
  std::vector<const Expr*> conjuncts;
  if (block.local_pred != nullptr) {
    CollectConjuncts(*block.local_pred, &conjuncts);
  }
  for (const ExprPtr& c : block.correlated_preds) {
    CollectConjuncts(*c, &conjuncts);
  }
  for (const Expr* c : conjuncts) TransferConjunct(*c, &state);

  // Cardinality bound.
  if (state.provably_empty) {
    props.card = CardBound::kZero;
  } else {
    std::set<std::string> pinned;
    for (const Expr* c : conjuncts) CollectPinnedAttrs(*c, props, &pinned);
    for (const std::vector<std::string>& key : props.keys) {
      const bool covered =
          std::all_of(key.begin(), key.end(), [&](const std::string& k) {
            return pinned.count(k) > 0;
          });
      if (covered) {
        props.card = CardBound::kAtMostOne;
        break;
      }
    }
  }
  return props;
}

LinkFacts PropertyAnalyzer::AnalyzeLink(
    const QueryBlock& child,
    const std::vector<const QueryBlock*>& ancestors) const {
  LinkFacts facts;
  // Aggregate links keep the binder's default link_op (kExists), so this
  // check must precede the emptiness-test branch.
  if (child.is_aggregate_link) {
    // MIN/MAX/SUM/AVG over an empty or all-NULL group are NULL, so the
    // comparison can go UNKNOWN even over non-NULL inputs. Conservative.
    facts.reason = "aggregate link (empty group folds to NULL)";
    return facts;
  }
  if (child.link_op == LinkOp::kExists || child.link_op == LinkOp::kNotExists) {
    facts.two_valued = true;
    facts.reason = "emptiness test, no member comparison";
    return facts;
  }

  // Outer operand: a constant, or an attribute of some enclosing block.
  Nullability outer_null = Nullability::kNullable;
  CmpClass outer_class = CmpClass::kNumeric;
  bool outer_known = false;
  std::string outer_label;
  if (child.linking_is_const) {
    outer_label = "constant " + child.linking_const.ToString();
    outer_null = child.linking_const.is_null() ? Nullability::kAlwaysNull
                                               : Nullability::kNonNull;
    outer_class = ClassOfValue(child.linking_const);
    outer_known = !child.linking_const.is_null();
  } else {
    outer_label = "linking attribute '" + child.linking_attr + "'";
    for (auto it = ancestors.rbegin(); it != ancestors.rend(); ++it) {
      const BlockProperties props = Analyze(**it);
      const auto found = props.attrs.find(child.linking_attr);
      if (found == props.attrs.end()) continue;
      outer_null = found->second.nullability;
      outer_class = ClassOfType(found->second.type);
      outer_known = true;
      break;
    }
  }

  // Inner operand: the child's linked attribute after σ and C.
  const BlockProperties child_props = Analyze(child);
  const auto linked = child_props.attrs.find(child.linked_attr);
  const Nullability inner_null = linked != child_props.attrs.end()
                                     ? linked->second.nullability
                                     : Nullability::kNullable;
  const CmpClass inner_class = linked != child_props.attrs.end()
                                   ? ClassOfType(linked->second.type)
                                   : CmpClass::kNumeric;
  const bool inner_known = linked != child_props.attrs.end();

  if (outer_null == Nullability::kAlwaysNull) {
    facts.always_unknown = true;
    facts.reason = outer_label + " is provably NULL";
    return facts;
  }
  if (inner_null == Nullability::kAlwaysNull) {
    facts.always_unknown = true;
    facts.reason =
        "linked attribute '" + child.linked_attr + "' is provably NULL";
    return facts;
  }
  if (outer_known && inner_known && outer_class != inner_class) {
    facts.always_unknown = true;
    facts.reason = outer_label + " and linked attribute '" +
                   child.linked_attr + "' have incomparable types";
    return facts;
  }
  if (outer_null != Nullability::kNonNull) {
    facts.reason = outer_label + " may be NULL";
    return facts;
  }
  if (inner_null != Nullability::kNonNull) {
    facts.reason =
        "linked attribute '" + child.linked_attr + "' may be NULL";
    return facts;
  }
  facts.two_valued = true;
  facts.reason = "both operands proven non-NULL";
  return facts;
}

bool PropertyAnalyzer::AtMostOneMember(const QueryBlock& child) const {
  const BlockProperties props = Analyze(child);
  return props.card != CardBound::kMany;
}

bool NegativeLinkRunsTwoValued(const QueryBlock& child,
                               const std::vector<const QueryBlock*>& path,
                               const Catalog& catalog) {
  if (path.empty() || !child.IsLeaf()) return false;
  if (child.is_aggregate_link || child.LinkIsPositive()) return false;
  // Strict-safe path: the antijoin drops failing outer tuples for good, so
  // every enclosing link must be positive.
  for (size_t i = 1; i < path.size(); ++i) {
    if (!path[i]->LinkIsPositive()) return false;
  }
  if (child.link_op == LinkOp::kNotExists) return true;
  const PropertyAnalyzer analyzer(catalog);
  return analyzer.AnalyzeLink(child, path).two_valued;
}

}  // namespace nestra
