#include "nested/linking_predicate.h"

#include <sstream>
#include <utility>

namespace nestra {

const char* LinkOpToString(LinkOp op) {
  switch (op) {
    case LinkOp::kExists:
      return "EXISTS";
    case LinkOp::kNotExists:
      return "NOT EXISTS";
    case LinkOp::kIn:
      return "IN";
    case LinkOp::kNotIn:
      return "NOT IN";
    case LinkOp::kSome:
      return "SOME";
    case LinkOp::kAll:
      return "ALL";
  }
  return "?";
}

bool IsPositiveLinkOp(LinkOp op) {
  switch (op) {
    case LinkOp::kExists:
    case LinkOp::kIn:
    case LinkOp::kSome:
      return true;
    case LinkOp::kNotExists:
    case LinkOp::kNotIn:
    case LinkOp::kAll:
      return false;
  }
  return false;
}

const char* LinkAggToString(LinkAgg agg) {
  switch (agg) {
    case LinkAgg::kCount:
      return "count";
    case LinkAgg::kCountStar:
      return "count(*)";
    case LinkAgg::kSum:
      return "sum";
    case LinkAgg::kMin:
      return "min";
    case LinkAgg::kMax:
      return "max";
    case LinkAgg::kAvg:
      return "avg";
  }
  return "?";
}

bool LinkingPredicate::IsNegative() const {
  switch (kind) {
    case Kind::kEmpty:
      return true;
    case Kind::kNotEmpty:
      return false;
    case Kind::kQuantified:
      return quant == Quantifier::kAll;
    case Kind::kAggregate:
      // An empty group can still satisfy the predicate (COUNT = 0 directly;
      // the others because UNKNOWN padding upstream must not erase the
      // tuple); treat like a negative operator so pseudo-selection is used.
      return true;
  }
  return true;
}

std::string LinkingPredicate::ToString() const {
  std::ostringstream oss;
  switch (kind) {
    case Kind::kEmpty:
      oss << "{" << group_name << "} = empty";
      break;
    case Kind::kNotEmpty:
      oss << "{" << group_name << "} != empty";
      break;
    case Kind::kQuantified:
      oss << linking_attr << " " << CmpOpToString(op) << " "
          << (quant == Quantifier::kAll ? "ALL" : "SOME") << " {"
          << linked_attr << "}";
      break;
    case Kind::kAggregate:
      oss << linking_attr << " " << CmpOpToString(op) << " "
          << LinkAggToString(agg) << "{" << linked_attr << "}";
      break;
  }
  return oss.str();
}

LinkingPredicate MakeLinkingPredicate(LinkOp op, CmpOp cmp,
                                      std::string linking_attr,
                                      std::string group_name,
                                      std::string linked_attr,
                                      std::string member_key_attr) {
  LinkingPredicate p;
  p.group_name = std::move(group_name);
  p.member_key_attr = std::move(member_key_attr);
  switch (op) {
    case LinkOp::kExists:
      p.kind = LinkingPredicate::Kind::kNotEmpty;
      return p;
    case LinkOp::kNotExists:
      p.kind = LinkingPredicate::Kind::kEmpty;
      return p;
    case LinkOp::kIn:
      p.kind = LinkingPredicate::Kind::kQuantified;
      p.op = CmpOp::kEq;
      p.quant = Quantifier::kSome;
      break;
    case LinkOp::kNotIn:
      p.kind = LinkingPredicate::Kind::kQuantified;
      p.op = CmpOp::kNe;
      p.quant = Quantifier::kAll;
      break;
    case LinkOp::kSome:
      p.kind = LinkingPredicate::Kind::kQuantified;
      p.op = cmp;
      p.quant = Quantifier::kSome;
      break;
    case LinkOp::kAll:
      p.kind = LinkingPredicate::Kind::kQuantified;
      p.op = cmp;
      p.quant = Quantifier::kAll;
      break;
  }
  p.linking_attr = std::move(linking_attr);
  p.linked_attr = std::move(linked_attr);
  return p;
}

LinkingPredicate MakeAggregateLinkingPredicate(LinkAgg agg, CmpOp cmp,
                                               std::string linking_attr,
                                               std::string group_name,
                                               std::string linked_attr,
                                               std::string member_key_attr) {
  LinkingPredicate p;
  p.kind = LinkingPredicate::Kind::kAggregate;
  p.agg = agg;
  p.op = cmp;
  p.linking_attr = std::move(linking_attr);
  p.group_name = std::move(group_name);
  p.linked_attr = std::move(linked_attr);
  p.member_key_attr = std::move(member_key_attr);
  return p;
}

Result<BoundLinkingPredicate> BoundLinkingPredicate::Make(
    const LinkingPredicate& pred, const NestedSchema& schema) {
  BoundLinkingPredicate out;
  out.pred = pred;
  NESTRA_ASSIGN_OR_RETURN(out.group_index,
                          schema.GroupIndex(pred.group_name));
  const NestedSchema& member = *schema.groups()[out.group_index].schema;
  NESTRA_ASSIGN_OR_RETURN(out.key_idx,
                          member.atoms().Resolve(pred.member_key_attr));
  if (pred.kind == LinkingPredicate::Kind::kQuantified ||
      pred.kind == LinkingPredicate::Kind::kAggregate) {
    if (!pred.linking_is_const) {
      NESTRA_ASSIGN_OR_RETURN(out.linking_idx,
                              schema.atoms().Resolve(pred.linking_attr));
    }
    if (!pred.linked_attr.empty()) {  // empty for COUNT(*)
      NESTRA_ASSIGN_OR_RETURN(out.linked_idx,
                              member.atoms().Resolve(pred.linked_attr));
    }
  }
  return out;
}

TriBool BoundLinkingPredicate::Eval(const NestedTuple& tuple) const {
  LinkingAccumulator acc(pred);
  acc.Reset(linking_idx >= 0 ? tuple.atoms[linking_idx]
                             : pred.linking_const);
  for (const NestedTuple& m : tuple.groups[group_index]) {
    acc.Add(m.atoms[key_idx],
            linked_idx >= 0 ? m.atoms[linked_idx] : Value::Null());
    if (acc.Decided()) break;
  }
  return acc.Result();
}

LinkingAccumulator::LinkingAccumulator(const LinkingPredicate& pred)
    : kind_(pred.kind), op_(pred.op), quant_(pred.quant), agg_(pred.agg) {
  Reset(Value::Null());
}

void LinkingAccumulator::Reset(Value linking_value) {
  linking_value_ = std::move(linking_value);
  acc_ = quant_ == Quantifier::kAll ? TriBool::kTrue : TriBool::kFalse;
  member_count_ = 0;
  agg_inputs_ = 0;
  sum_ = 0;
  sum_is_int_ = true;
  extreme_ = Value::Null();
}

void LinkingAccumulator::AddMember(const Value& linked) {
  if (kind_ == LinkingPredicate::Kind::kQuantified) {
    AddComparison(Value::Apply(op_, linking_value_, linked));
    return;
  }
  ++member_count_;
  if (kind_ != LinkingPredicate::Kind::kAggregate) return;  // emptiness
  if (agg_ == LinkAgg::kCountStar) return;  // counts members, above
  if (linked.is_null()) return;             // aggregates ignore NULLs
  ++agg_inputs_;
  switch (agg_) {
    case LinkAgg::kCount:
    case LinkAgg::kCountStar:
      break;
    case LinkAgg::kSum:
    case LinkAgg::kAvg:
      if (!linked.is_int()) sum_is_int_ = false;
      sum_ += linked.AsDouble().value_or(0);
      break;
    case LinkAgg::kMin:
      if (extreme_.is_null() ||
          Value::TotalOrderCompare(linked, extreme_) < 0) {
        extreme_ = linked;
      }
      break;
    case LinkAgg::kMax:
      if (extreme_.is_null() ||
          Value::TotalOrderCompare(linked, extreme_) > 0) {
        extreme_ = linked;
      }
      break;
  }
}

TriBool LinkingAccumulator::Result() const {
  switch (kind_) {
    case LinkingPredicate::Kind::kEmpty:
      return MakeTriBool(member_count_ == 0);
    case LinkingPredicate::Kind::kNotEmpty:
      return MakeTriBool(member_count_ > 0);
    case LinkingPredicate::Kind::kQuantified:
      // SOME over empty = False, ALL over empty = True: the initial acc_.
      return acc_;
    case LinkingPredicate::Kind::kAggregate: {
      Value agg_value;
      switch (agg_) {
        case LinkAgg::kCountStar:
          agg_value = Value::Int64(member_count_);
          break;
        case LinkAgg::kCount:
          agg_value = Value::Int64(agg_inputs_);
          break;
        case LinkAgg::kSum:
          if (agg_inputs_ == 0) {
            agg_value = Value::Null();
          } else if (sum_is_int_) {
            agg_value = Value::Int64(static_cast<int64_t>(sum_));
          } else {
            agg_value = Value::Float64(sum_);
          }
          break;
        case LinkAgg::kAvg:
          agg_value = agg_inputs_ == 0
                          ? Value::Null()
                          : Value::Float64(sum_ / static_cast<double>(
                                                      agg_inputs_));
          break;
        case LinkAgg::kMin:
        case LinkAgg::kMax:
          agg_value = extreme_;  // NULL when no non-NULL inputs
          break;
      }
      return Value::Apply(op_, linking_value_, agg_value);
    }
  }
  return TriBool::kUnknown;
}

bool LinkingAccumulator::Decided() const {
  switch (kind_) {
    case LinkingPredicate::Kind::kEmpty:
    case LinkingPredicate::Kind::kNotEmpty:
      return member_count_ > 0;
    case LinkingPredicate::Kind::kQuantified:
      return quant_ == Quantifier::kAll ? IsFalse(acc_) : IsTrue(acc_);
    case LinkingPredicate::Kind::kAggregate:
      return false;  // the fold needs every member
  }
  return false;
}

}  // namespace nestra
