#include "expr/expr.h"

#include <sstream>

namespace nestra {

TriBool Expr::EvalBool(const Row& row) const {
  const Value v = Eval(row);
  if (v.is_null()) return TriBool::kUnknown;
  if (v.is_int()) return MakeTriBool(v.int64() != 0);
  if (v.is_float()) return MakeTriBool(v.float64() != 0.0);
  return MakeTriBool(!v.string().empty());
}

Status ColumnRef::Bind(const Schema& schema) {
  NESTRA_ASSIGN_OR_RETURN(index_, schema.Resolve(name_));
  return Status::OK();
}

const char* ArithOpToString(ArithOp op) {
  switch (op) {
    case ArithOp::kAdd:
      return "+";
    case ArithOp::kSub:
      return "-";
    case ArithOp::kMul:
      return "*";
    case ArithOp::kDiv:
      return "/";
  }
  return "?";
}

Value Arithmetic::Eval(const Row& row) const {
  const Value l = lhs_->Eval(row);
  const Value r = rhs_->Eval(row);
  const std::optional<double> lv = l.AsDouble();
  const std::optional<double> rv = r.AsDouble();
  if (!lv.has_value() || !rv.has_value()) return Value::Null();
  if (op_ == ArithOp::kDiv) {
    if (*rv == 0.0) return Value::Null();  // SQL would error; we null
    return Value::Float64(*lv / *rv);
  }
  double result = 0;
  switch (op_) {
    case ArithOp::kAdd:
      result = *lv + *rv;
      break;
    case ArithOp::kSub:
      result = *lv - *rv;
      break;
    case ArithOp::kMul:
      result = *lv * *rv;
      break;
    case ArithOp::kDiv:
      break;  // handled above
  }
  if (l.is_int() && r.is_int()) {
    return Value::Int64(static_cast<int64_t>(result));
  }
  return Value::Float64(result);
}

std::string Arithmetic::ToString() const {
  return "(" + lhs_->ToString() + " " + ArithOpToString(op_) + " " +
         rhs_->ToString() + ")";
}

Status Comparison::Bind(const Schema& schema) {
  NESTRA_RETURN_NOT_OK(lhs_->Bind(schema));
  NESTRA_RETURN_NOT_OK(rhs_->Bind(schema));
  return Status::OK();
}

Value Comparison::Eval(const Row& row) const {
  const TriBool t = EvalBool(row);
  if (IsUnknown(t)) return Value::Null();
  return Value::Bool(IsTrue(t));
}

std::string Comparison::ToString() const {
  std::ostringstream oss;
  oss << lhs_->ToString() << " " << CmpOpToString(op_) << " "
      << rhs_->ToString();
  return oss.str();
}

Status AndExpr::Bind(const Schema& schema) {
  for (const ExprPtr& c : children_) NESTRA_RETURN_NOT_OK(c->Bind(schema));
  return Status::OK();
}

Value AndExpr::Eval(const Row& row) const {
  const TriBool t = EvalBool(row);
  if (IsUnknown(t)) return Value::Null();
  return Value::Bool(IsTrue(t));
}

TriBool AndExpr::EvalBool(const Row& row) const {
  TriBool acc = TriBool::kTrue;
  for (const ExprPtr& c : children_) {
    acc = And(acc, c->EvalBool(row));
    if (IsFalse(acc)) return acc;  // short-circuit on definite falsity
  }
  return acc;
}

void AndExpr::CollectColumns(std::vector<std::string>* out) const {
  for (const ExprPtr& c : children_) c->CollectColumns(out);
}

std::string AndExpr::ToString() const {
  std::ostringstream oss;
  for (size_t i = 0; i < children_.size(); ++i) {
    if (i > 0) oss << " AND ";
    oss << "(" << children_[i]->ToString() << ")";
  }
  return oss.str();
}

std::unique_ptr<Expr> AndExpr::Clone() const {
  std::vector<ExprPtr> copies;
  copies.reserve(children_.size());
  for (const ExprPtr& c : children_) copies.push_back(c->Clone());
  return std::make_unique<AndExpr>(std::move(copies));
}

Status OrExpr::Bind(const Schema& schema) {
  for (const ExprPtr& c : children_) NESTRA_RETURN_NOT_OK(c->Bind(schema));
  return Status::OK();
}

Value OrExpr::Eval(const Row& row) const {
  const TriBool t = EvalBool(row);
  if (IsUnknown(t)) return Value::Null();
  return Value::Bool(IsTrue(t));
}

TriBool OrExpr::EvalBool(const Row& row) const {
  TriBool acc = TriBool::kFalse;
  for (const ExprPtr& c : children_) {
    acc = Or(acc, c->EvalBool(row));
    if (IsTrue(acc)) return acc;
  }
  return acc;
}

void OrExpr::CollectColumns(std::vector<std::string>* out) const {
  for (const ExprPtr& c : children_) c->CollectColumns(out);
}

std::string OrExpr::ToString() const {
  std::ostringstream oss;
  for (size_t i = 0; i < children_.size(); ++i) {
    if (i > 0) oss << " OR ";
    oss << "(" << children_[i]->ToString() << ")";
  }
  return oss.str();
}

std::unique_ptr<Expr> OrExpr::Clone() const {
  std::vector<ExprPtr> copies;
  copies.reserve(children_.size());
  for (const ExprPtr& c : children_) copies.push_back(c->Clone());
  return std::make_unique<OrExpr>(std::move(copies));
}

Value NotExpr::Eval(const Row& row) const {
  const TriBool t = EvalBool(row);
  if (IsUnknown(t)) return Value::Null();
  return Value::Bool(IsTrue(t));
}

const Value* BoundConstant(const Expr& e) {
  if (const auto* lit = dynamic_cast<const Literal*>(&e)) return &lit->value();
  if (const auto* param = dynamic_cast<const ParamExpr*>(&e)) {
    return param->bound();
  }
  return nullptr;
}

ExprPtr Col(std::string name) {
  return std::make_unique<ColumnRef>(std::move(name));
}
ExprPtr Lit(Value v) { return std::make_unique<Literal>(std::move(v)); }
ExprPtr LitInt(int64_t v) { return Lit(Value::Int64(v)); }
ExprPtr LitFloat(double v) { return Lit(Value::Float64(v)); }
ExprPtr LitString(std::string v) { return Lit(Value::String(std::move(v))); }
ExprPtr Cmp(CmpOp op, ExprPtr lhs, ExprPtr rhs) {
  return std::make_unique<Comparison>(op, std::move(lhs), std::move(rhs));
}
ExprPtr Arith(ArithOp op, ExprPtr lhs, ExprPtr rhs) {
  return std::make_unique<Arithmetic>(op, std::move(lhs), std::move(rhs));
}
ExprPtr Eq(ExprPtr lhs, ExprPtr rhs) {
  return Cmp(CmpOp::kEq, std::move(lhs), std::move(rhs));
}

ExprPtr MakeAnd(std::vector<ExprPtr> children) {
  if (children.empty()) return Lit(Value::Bool(true));
  if (children.size() == 1) return std::move(children[0]);
  // Flatten nested ANDs for readability and SplitConjunction round-trips.
  std::vector<ExprPtr> flat;
  for (ExprPtr& c : children) {
    if (auto* a = dynamic_cast<AndExpr*>(c.get())) {
      for (ExprPtr& g : a->TakeChildren()) flat.push_back(std::move(g));
    } else {
      flat.push_back(std::move(c));
    }
  }
  return std::make_unique<AndExpr>(std::move(flat));
}

ExprPtr MakeOr(std::vector<ExprPtr> children) {
  if (children.empty()) return Lit(Value::Bool(false));
  if (children.size() == 1) return std::move(children[0]);
  return std::make_unique<OrExpr>(std::move(children));
}

ExprPtr MakeNot(ExprPtr child) {
  return std::make_unique<NotExpr>(std::move(child));
}
ExprPtr IsNull(ExprPtr child) {
  return std::make_unique<IsNullExpr>(std::move(child), /*negated=*/false);
}
ExprPtr IsNotNull(ExprPtr child) {
  return std::make_unique<IsNullExpr>(std::move(child), /*negated=*/true);
}

}  // namespace nestra
