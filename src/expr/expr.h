#ifndef NESTRA_EXPR_EXPR_H_
#define NESTRA_EXPR_EXPR_H_

#include <memory>
#include <string>
#include <vector>

#include "common/row.h"
#include "common/schema.h"
#include "common/status.h"
#include "common/tribool.h"
#include "common/value.h"

namespace nestra {

/// \brief Scalar / predicate expression tree.
///
/// Lifecycle: build the tree (names only), `Bind` it against the schema of
/// the rows it will see (resolving column names to indices and checking
/// types), then evaluate row-at-a-time. Evaluation after a successful Bind is
/// infallible; all errors are reported at bind time.
///
/// Predicates use SQL three-valued logic: `EvalBool` returns a TriBool and a
/// filter keeps a row only when the result is kTrue.
class Expr {
 public:
  virtual ~Expr() = default;

  /// Resolves column references against `schema` and type-checks.
  virtual Status Bind(const Schema& schema) = 0;

  /// Scalar evaluation. For predicate nodes this returns Value::Bool /
  /// Value::Null mirroring EvalBool.
  virtual Value Eval(const Row& row) const = 0;

  /// Predicate evaluation under three-valued logic. For scalar nodes:
  /// NULL -> kUnknown, zero/empty -> kFalse, else kTrue (SQL-ish truthiness;
  /// the binder never produces bare scalars in predicate position).
  virtual TriBool EvalBool(const Row& row) const;

  /// Collects all column names referenced by this subtree.
  virtual void CollectColumns(std::vector<std::string>* out) const = 0;

  virtual std::string ToString() const = 0;

  /// Deep copy (unbound; re-Bind before use).
  virtual std::unique_ptr<Expr> Clone() const = 0;
};

using ExprPtr = std::unique_ptr<Expr>;

/// \brief Reference to a column by (possibly qualified) name.
class ColumnRef final : public Expr {
 public:
  explicit ColumnRef(std::string name) : name_(std::move(name)) {}

  Status Bind(const Schema& schema) override;
  Value Eval(const Row& row) const override { return row[index_]; }
  void CollectColumns(std::vector<std::string>* out) const override {
    out->push_back(name_);
  }
  std::string ToString() const override { return name_; }
  std::unique_ptr<Expr> Clone() const override {
    return std::make_unique<ColumnRef>(name_);
  }

  const std::string& name() const { return name_; }
  /// Valid after Bind.
  int index() const { return index_; }

 private:
  std::string name_;
  int index_ = -1;
};

/// \brief A constant.
class Literal final : public Expr {
 public:
  explicit Literal(Value value) : value_(std::move(value)) {}

  Status Bind(const Schema&) override { return Status::OK(); }
  Value Eval(const Row&) const override { return value_; }
  void CollectColumns(std::vector<std::string>*) const override {}
  std::string ToString() const override { return value_.ToString(); }
  std::unique_ptr<Expr> Clone() const override {
    return std::make_unique<Literal>(value_);
  }

  const Value& value() const { return value_; }

 private:
  Value value_;
};

/// \brief A prepared-statement parameter `$n`.
///
/// Holds a pointer to the slot vector owned by the PreparedStatement; Eval
/// reads the current slot value, so re-executing a prepared plan only stores
/// new values into the slots — no re-parse, re-bind, or re-verify. Clone
/// shares the slots (plans clone predicates per execution, and every clone
/// must see the values bound for that execution).
///
/// A parameter is unbound from PREPARE until the first EXECUTE: the slot
/// vector is empty, `bound()` is null and Eval yields NULL, so the plan
/// verifier at PREPARE sees `$n` as an opaque scalar. From EXECUTE on, the
/// slot holds the (coerced) argument and `bound()` points at it; every
/// analysis that reads constants goes through BoundConstant, so the scan
/// kernels, zone maps, estimator and property analyzer treat a bound `$n`
/// exactly like the literal the ad hoc statement would carry.
class ParamExpr final : public Expr {
 public:
  ParamExpr(int index, std::shared_ptr<const std::vector<Value>> slots)
      : index_(index), slots_(std::move(slots)) {}

  Status Bind(const Schema&) override { return Status::OK(); }
  Value Eval(const Row&) const override {
    const Value* v = bound();
    return v != nullptr ? *v : Value::Null();
  }
  void CollectColumns(std::vector<std::string>*) const override {}
  std::string ToString() const override {
    return "$" + std::to_string(index_ + 1);
  }
  std::unique_ptr<Expr> Clone() const override {
    return std::make_unique<ParamExpr>(index_, slots_);
  }

  /// 0-based slot index ($1 -> 0).
  int index() const { return index_; }

  /// The value EXECUTE bound to this parameter; null while unbound.
  const Value* bound() const {
    if (index_ < 0 || static_cast<size_t>(index_) >= slots_->size()) {
      return nullptr;
    }
    return &(*slots_)[static_cast<size_t>(index_)];
  }

 private:
  int index_;
  std::shared_ptr<const std::vector<Value>> slots_;
};

/// The constant `e` stands for in the current execution: a Literal's value
/// or a bound ParamExpr's slot value; null for any other expression and for
/// an unbound parameter. Every analysis that reads constants (scan kernels,
/// zone-map terms, selectivity estimates, property facts) calls this rather
/// than matching Literal, so a prepared statement scans, prunes and
/// estimates exactly like the ad hoc statement with the same constants.
const Value* BoundConstant(const Expr& e);

/// \brief Binary arithmetic under SQL semantics: a NULL (or non-numeric)
/// operand yields NULL, int ∘ int stays int64 for + - *, division always
/// produces float64, and division by zero yields NULL.
enum class ArithOp { kAdd, kSub, kMul, kDiv };

const char* ArithOpToString(ArithOp op);

class Arithmetic final : public Expr {
 public:
  Arithmetic(ArithOp op, ExprPtr lhs, ExprPtr rhs)
      : op_(op), lhs_(std::move(lhs)), rhs_(std::move(rhs)) {}

  Status Bind(const Schema& schema) override {
    NESTRA_RETURN_NOT_OK(lhs_->Bind(schema));
    return rhs_->Bind(schema);
  }
  Value Eval(const Row& row) const override;
  void CollectColumns(std::vector<std::string>* out) const override {
    lhs_->CollectColumns(out);
    rhs_->CollectColumns(out);
  }
  std::string ToString() const override;
  std::unique_ptr<Expr> Clone() const override {
    return std::make_unique<Arithmetic>(op_, lhs_->Clone(), rhs_->Clone());
  }

 private:
  ArithOp op_;
  ExprPtr lhs_;
  ExprPtr rhs_;
};

/// \brief lhs theta rhs with theta in {=, <>, <, <=, >, >=}; NULL on either
/// side yields Unknown.
class Comparison final : public Expr {
 public:
  Comparison(CmpOp op, ExprPtr lhs, ExprPtr rhs)
      : op_(op), lhs_(std::move(lhs)), rhs_(std::move(rhs)) {}

  Status Bind(const Schema& schema) override;
  Value Eval(const Row& row) const override;
  TriBool EvalBool(const Row& row) const override {
    return Value::Apply(op_, lhs_->Eval(row), rhs_->Eval(row));
  }
  void CollectColumns(std::vector<std::string>* out) const override {
    lhs_->CollectColumns(out);
    rhs_->CollectColumns(out);
  }
  std::string ToString() const override;
  std::unique_ptr<Expr> Clone() const override {
    return std::make_unique<Comparison>(op_, lhs_->Clone(), rhs_->Clone());
  }

  CmpOp op() const { return op_; }
  const Expr& lhs() const { return *lhs_; }
  const Expr& rhs() const { return *rhs_; }

 private:
  CmpOp op_;
  ExprPtr lhs_;
  ExprPtr rhs_;
};

/// \brief N-ary Kleene conjunction.
class AndExpr final : public Expr {
 public:
  explicit AndExpr(std::vector<ExprPtr> children)
      : children_(std::move(children)) {}

  Status Bind(const Schema& schema) override;
  Value Eval(const Row& row) const override;
  TriBool EvalBool(const Row& row) const override;
  void CollectColumns(std::vector<std::string>* out) const override;
  std::string ToString() const override;
  std::unique_ptr<Expr> Clone() const override;

  const std::vector<ExprPtr>& children() const { return children_; }
  std::vector<ExprPtr> TakeChildren() { return std::move(children_); }

 private:
  std::vector<ExprPtr> children_;
};

/// \brief N-ary Kleene disjunction.
class OrExpr final : public Expr {
 public:
  explicit OrExpr(std::vector<ExprPtr> children)
      : children_(std::move(children)) {}

  Status Bind(const Schema& schema) override;
  Value Eval(const Row& row) const override;
  TriBool EvalBool(const Row& row) const override;
  void CollectColumns(std::vector<std::string>* out) const override;
  std::string ToString() const override;
  std::unique_ptr<Expr> Clone() const override;

  const std::vector<ExprPtr>& children() const { return children_; }

 private:
  std::vector<ExprPtr> children_;
};

/// \brief Kleene negation.
class NotExpr final : public Expr {
 public:
  explicit NotExpr(ExprPtr child) : child_(std::move(child)) {}

  Status Bind(const Schema& schema) override { return child_->Bind(schema); }
  Value Eval(const Row& row) const override;
  TriBool EvalBool(const Row& row) const override {
    return Not(child_->EvalBool(row));
  }
  void CollectColumns(std::vector<std::string>* out) const override {
    child_->CollectColumns(out);
  }
  std::string ToString() const override {
    return "NOT (" + child_->ToString() + ")";
  }
  std::unique_ptr<Expr> Clone() const override {
    return std::make_unique<NotExpr>(child_->Clone());
  }

 private:
  ExprPtr child_;
};

/// \brief `x IS NULL` / `x IS NOT NULL` — two-valued, never Unknown.
class IsNullExpr final : public Expr {
 public:
  IsNullExpr(ExprPtr child, bool negated)
      : child_(std::move(child)), negated_(negated) {}

  Status Bind(const Schema& schema) override { return child_->Bind(schema); }
  Value Eval(const Row& row) const override {
    return Value::Bool(IsTrue(EvalBool(row)));
  }
  TriBool EvalBool(const Row& row) const override {
    const bool isnull = child_->Eval(row).is_null();
    return MakeTriBool(negated_ ? !isnull : isnull);
  }
  void CollectColumns(std::vector<std::string>* out) const override {
    child_->CollectColumns(out);
  }
  std::string ToString() const override {
    return child_->ToString() + (negated_ ? " IS NOT NULL" : " IS NULL");
  }
  std::unique_ptr<Expr> Clone() const override {
    return std::make_unique<IsNullExpr>(child_->Clone(), negated_);
  }

  bool negated() const { return negated_; }
  const Expr& child() const { return *child_; }

 private:
  ExprPtr child_;
  bool negated_;
};

// Convenience constructors.
ExprPtr Col(std::string name);
ExprPtr Lit(Value v);
ExprPtr LitInt(int64_t v);
ExprPtr LitFloat(double v);
ExprPtr LitString(std::string v);
ExprPtr Cmp(CmpOp op, ExprPtr lhs, ExprPtr rhs);
ExprPtr Arith(ArithOp op, ExprPtr lhs, ExprPtr rhs);
ExprPtr Eq(ExprPtr lhs, ExprPtr rhs);
ExprPtr MakeAnd(std::vector<ExprPtr> children);  // flattens; empty -> TRUE
ExprPtr MakeOr(std::vector<ExprPtr> children);
ExprPtr MakeNot(ExprPtr child);
ExprPtr IsNull(ExprPtr child);
ExprPtr IsNotNull(ExprPtr child);

}  // namespace nestra

#endif  // NESTRA_EXPR_EXPR_H_
