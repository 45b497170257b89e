#include "exec/batch_predicate.h"

#include <algorithm>
#include <string>
#include <type_traits>
#include <utility>

namespace nestra {

namespace {

// The engine's comparison truth table (Value::Apply) with the operator
// fixed at compile time. Only < and > are evaluated, so a NaN operand
// compares "equal" to everything, exactly as Value::Compare's numeric path
// does; `&`/`|` keep the result free of short-circuit branches.
template <CmpOp OP, typename T>
bool Holds(T x, T y) {
  if constexpr (OP == CmpOp::kEq) {
    return !(x < y) & !(x > y);
  } else if constexpr (OP == CmpOp::kNe) {
    return (x < y) | (x > y);
  } else if constexpr (OP == CmpOp::kLt) {
    return x < y;
  } else if constexpr (OP == CmpOp::kLe) {
    return !(x > y);
  } else if constexpr (OP == CmpOp::kGt) {
    return x > y;
  } else {
    return !(x < y);  // kGe
  }
}

// Branch-free compaction: every candidate index is written, and the write
// cursor only moves past the ones `keep` accepts. The first term walks the
// batch; later terms rewrite the current selection in place (the write
// cursor never passes the read cursor).
template <typename Keep>
void Compact(int64_t n, bool first, std::vector<int32_t>* sel, Keep keep) {
  size_t w = 0;
  if (first) {
    sel->resize(static_cast<size_t>(n));
    int32_t* out = sel->data();
    for (int64_t i = 0; i < n; ++i) {
      out[w] = static_cast<int32_t>(i);
      w += keep(i);
    }
  } else {
    int32_t* s = sel->data();
    for (size_t k = 0, m = sel->size(); k < m; ++k) {
      const int32_t i = s[k];
      s[w] = i;
      w += keep(i);
    }
  }
  sel->resize(w);
}

// The NULL guards, chosen once per batch. A null pointer marks an operand
// proven non-NULL, whose null-byte load then disappears. Reading a NULL
// row's value slot is safe (ColumnVector stores a zero or empty placeholder
// there), so the guard is an AND with the comparison, not a branch.
template <typename Pred>
void Guarded(int64_t n, bool first, const uint8_t* ln, const uint8_t* rn,
             std::vector<int32_t>* sel, Pred pred) {
  if (ln == nullptr && rn == nullptr) {
    Compact(n, first, sel, pred);
  } else if (rn == nullptr) {
    Compact(n, first, sel,
            [&](int64_t i) { return (ln[i] == 0) & pred(i); });
  } else if (ln == nullptr) {
    Compact(n, first, sel,
            [&](int64_t i) { return (rn[i] == 0) & pred(i); });
  } else {
    Compact(n, first, sel, [&](int64_t i) {
      return (ln[i] == 0) & (rn[i] == 0) & pred(i);
    });
  }
}

// One comparison kernel, `x(i) op y(i)` under the NULL guards, with the
// operator turned into a template argument before the row loop.
template <typename X, typename Y>
void CmpKernel(CmpOp op, int64_t n, bool first, const uint8_t* ln,
               const uint8_t* rn, std::vector<int32_t>* sel, X x, Y y) {
  const auto run = [&](auto kop) {
    Guarded(n, first, ln, rn, sel, [&](int64_t i) {
      return Holds<decltype(kop)::value>(x(i), y(i));
    });
  };
  switch (op) {
    case CmpOp::kEq:
      return run(std::integral_constant<CmpOp, CmpOp::kEq>{});
    case CmpOp::kNe:
      return run(std::integral_constant<CmpOp, CmpOp::kNe>{});
    case CmpOp::kLt:
      return run(std::integral_constant<CmpOp, CmpOp::kLt>{});
    case CmpOp::kLe:
      return run(std::integral_constant<CmpOp, CmpOp::kLe>{});
    case CmpOp::kGt:
      return run(std::integral_constant<CmpOp, CmpOp::kGt>{});
    case CmpOp::kGe:
      return run(std::integral_constant<CmpOp, CmpOp::kGe>{});
  }
}

// Storage classes a non-generic ColumnVector can expose to the kernels.
enum class StorageClass { kInt, kDouble, kString, kGeneric };

StorageClass ClassOf(const ColumnVector& col) {
  if (col.generic()) return StorageClass::kGeneric;
  switch (col.type()) {
    case TypeId::kInt64:
    case TypeId::kDate:
      return StorageClass::kInt;
    case TypeId::kFloat64:
      return StorageClass::kDouble;
    case TypeId::kString:
      return StorageClass::kString;
  }
  return StorageClass::kGeneric;
}

// Calls `k` with a numeric (kInt or kDouble) column's typed data.
template <typename K>
void WithNumbers(const ColumnVector& col, K k) {
  if (ClassOf(col) == StorageClass::kInt) {
    k(col.ints().data());
  } else {
    k(col.doubles().data());
  }
}

// The common type of two numeric operands, as Value::TotalOrderCompare
// compares them: int64 when both are ints, double otherwise.
template <typename A, typename B>
using NumericCommon = std::common_type_t<std::remove_cvref_t<A>,
                                         std::remove_cvref_t<B>>;

}  // namespace

bool VectorizedPredicate::Compile(const Expr* expr, const Schema& schema,
                                  VectorizedPredicate* out) {
  out->terms_.clear();
  if (expr == nullptr) return true;

  if (const auto* conj = dynamic_cast<const AndExpr*>(expr)) {
    for (const ExprPtr& child : conj->children()) {
      VectorizedPredicate scratch;
      if (!Compile(child.get(), schema, &scratch)) return false;
      for (Term& t : scratch.terms_) out->terms_.push_back(std::move(t));
    }
    return true;
  }

  if (const auto* cmp = dynamic_cast<const Comparison*>(expr)) {
    const auto* lcol = dynamic_cast<const ColumnRef*>(&cmp->lhs());
    const auto* rcol = dynamic_cast<const ColumnRef*>(&cmp->rhs());
    const Value* llit = BoundConstant(cmp->lhs());
    const Value* rlit = BoundConstant(cmp->rhs());
    Term term;
    term.op = cmp->op();
    if (lcol != nullptr && rcol != nullptr) {
      Result<int> li = schema.Resolve(lcol->name());
      Result<int> ri = schema.Resolve(rcol->name());
      if (!li.ok() || !ri.ok()) return false;
      term.kind = TermKind::kCmpColCol;
      term.lhs = *li;
      term.rhs = *ri;
    } else if (lcol != nullptr && rlit != nullptr) {
      Result<int> li = schema.Resolve(lcol->name());
      if (!li.ok()) return false;
      term.kind = TermKind::kCmpColLit;
      term.lhs = *li;
      term.literal = *rlit;
    } else if (llit != nullptr && rcol != nullptr) {
      Result<int> ri = schema.Resolve(rcol->name());
      if (!ri.ok()) return false;
      term.kind = TermKind::kCmpColLit;
      term.op = FlipCmpOp(cmp->op());
      term.lhs = *ri;
      term.literal = *llit;
    } else {
      return false;
    }
    out->terms_.push_back(std::move(term));
    return true;
  }

  if (const auto* isnull = dynamic_cast<const IsNullExpr*>(expr)) {
    // Only over a bare column; IS NULL over arithmetic falls back.
    const auto* col = dynamic_cast<const ColumnRef*>(&isnull->child());
    if (col == nullptr) return false;
    Result<int> idx = schema.Resolve(col->name());
    if (!idx.ok()) return false;
    Term term;
    term.kind = TermKind::kIsNull;
    term.lhs = *idx;
    term.negated = isnull->negated();
    out->terms_.push_back(std::move(term));
    return true;
  }

  return false;
}

bool VectorizedPredicate::Compile(const Expr* expr, const Schema& schema,
                                  const std::vector<bool>& non_null_cols,
                                  VectorizedPredicate* out) {
  if (!Compile(expr, schema, out)) return false;
  const auto proven = [&](int col) {
    return col >= 0 && col < static_cast<int>(non_null_cols.size()) &&
           non_null_cols[col];
  };
  for (Term& t : out->terms_) {
    t.lhs_non_null = proven(t.lhs);
    if (t.kind == TermKind::kCmpColCol) t.rhs_non_null = proven(t.rhs);
  }
  return true;
}

void VectorizedPredicate::SelectTerm(const RowBatch& batch, const Term& term,
                                     bool first,
                                     std::vector<int32_t>* sel) const {
  const int64_t n = batch.num_rows();
  const ColumnVector& lhs = batch.column(term.lhs);
  const uint8_t* lnull = term.lhs_non_null ? nullptr : lhs.nulls().data();

  if (term.kind == TermKind::kIsNull) {
    const bool want_null = !term.negated;
    if (lnull != nullptr) {
      Compact(n, first, sel,
              [&](int64_t i) { return (lnull[i] != 0) == want_null; });
    } else if (want_null) {
      sel->clear();  // proven non-NULL: IS NULL selects nothing
    } else if (first) {
      Compact(n, first, sel, [](int64_t) { return true; });
    }
    return;
  }

  const CmpOp op = term.op;
  const StorageClass lcls = ClassOf(lhs);
  if (term.kind == TermKind::kCmpColLit) {
    const Value& lit = term.literal;
    if (lcls == StorageClass::kGeneric) {
      Compact(n, first, sel, [&](int64_t i) {
        return IsTrue(Value::Apply(op, lhs.GetValue(i), lit));
      });
    } else if (lit.is_null() ||
               (lcls == StorageClass::kString) != lit.is_string()) {
      sel->clear();  // NULL literal or string vs numeric: Unknown everywhere
    } else if (lcls == StorageClass::kString) {
      // Strings compare through one compare() against 0.
      const std::string* a = lhs.strings().data();
      const std::string& y = lit.string();
      CmpKernel(op, n, first, lnull, nullptr, sel,
                [&](int64_t i) { return a[i].compare(y); },
                [](int64_t) { return 0; });
    } else {
      WithNumbers(lhs, [&](const auto* a) {
        const auto against = [&](auto lit_value) {
          using T = NumericCommon<decltype(*a), decltype(lit_value)>;
          const T y = static_cast<T>(lit_value);
          CmpKernel(op, n, first, lnull, nullptr, sel,
                    [&](int64_t i) { return static_cast<T>(a[i]); },
                    [&](int64_t) { return y; });
        };
        if (lit.is_int()) {
          against(lit.int64());
        } else {
          against(lit.float64());
        }
      });
    }
    return;
  }

  // kCmpColCol.
  const ColumnVector& rhs = batch.column(term.rhs);
  const uint8_t* rnull = term.rhs_non_null ? nullptr : rhs.nulls().data();
  const StorageClass rcls = ClassOf(rhs);
  if (lcls == StorageClass::kGeneric || rcls == StorageClass::kGeneric) {
    Compact(n, first, sel, [&](int64_t i) {
      return IsTrue(Value::Apply(op, lhs.GetValue(i), rhs.GetValue(i)));
    });
  } else if ((lcls == StorageClass::kString) !=
             (rcls == StorageClass::kString)) {
    sel->clear();  // string vs numeric: incomparable for every row
  } else if (lcls == StorageClass::kString) {
    const std::string* a = lhs.strings().data();
    const std::string* b = rhs.strings().data();
    CmpKernel(op, n, first, lnull, rnull, sel,
              [&](int64_t i) { return a[i].compare(b[i]); },
              [](int64_t) { return 0; });
  } else {
    WithNumbers(lhs, [&](const auto* a) {
      WithNumbers(rhs, [&](const auto* b) {
        using T = NumericCommon<decltype(*a), decltype(*b)>;
        CmpKernel(op, n, first, lnull, rnull, sel,
                  [&](int64_t i) { return static_cast<T>(a[i]); },
                  [&](int64_t i) { return static_cast<T>(b[i]); });
      });
    });
  }
}

std::vector<int> VectorizedPredicate::used_columns() const {
  std::vector<int> cols;
  for (const Term& term : terms_) {
    cols.push_back(term.lhs);
    if (term.kind == TermKind::kCmpColCol) cols.push_back(term.rhs);
  }
  std::sort(cols.begin(), cols.end());
  cols.erase(std::unique(cols.begin(), cols.end()), cols.end());
  return cols;
}

void VectorizedPredicate::Select(const RowBatch& batch,
                                 std::vector<int32_t>* sel) const {
  const int64_t n = batch.num_rows();
  if (terms_.empty()) {
    Compact(n, /*first=*/true, sel, [](int64_t) { return true; });
    return;
  }
  bool first = true;
  for (const Term& term : terms_) {
    SelectTerm(batch, term, first, sel);
    first = false;
    if (sel->empty()) return;
  }
}

}  // namespace nestra
