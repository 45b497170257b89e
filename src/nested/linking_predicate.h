#ifndef NESTRA_NESTED_LINKING_PREDICATE_H_
#define NESTRA_NESTED_LINKING_PREDICATE_H_

#include <string>
#include <vector>

#include "common/status.h"
#include "common/tribool.h"
#include "common/value.h"
#include "nested/nested_relation.h"

namespace nestra {

/// \brief Surface-SQL linking operators (the paper's taxonomy). EXISTS,
/// SOME/ANY and IN are *positive*; NOT EXISTS, ALL and NOT IN are *negative*.
enum class LinkOp { kExists, kNotExists, kIn, kNotIn, kSome, kAll };

const char* LinkOpToString(LinkOp op);
bool IsPositiveLinkOp(LinkOp op);

/// \brief Quantifier of an algebraic linking predicate.
enum class Quantifier { kSome, kAll };

/// \brief Aggregate function of a *scalar-aggregate* linking predicate —
/// the extension of the paper's framework to `A θ (SELECT agg(B) ...)`
/// subqueries: the same nest groups the members, but instead of
/// quantifying the comparison the group is folded to a single value first.
/// SQL semantics: aggregates ignore NULL inputs; MIN/MAX/SUM/AVG over an
/// empty (or all-NULL) group are NULL (so the comparison is UNKNOWN) while
/// COUNT/COUNT(*) are 0.
enum class LinkAgg { kCount, kCountStar, kSum, kMin, kMax, kAvg };

const char* LinkAggToString(LinkAgg agg);

/// \brief Definition 4: a linking predicate over a nested relation — either
/// `A θ L {B}` (quantified comparison of an atomic attribute against a
/// nested one) or `{B} = ∅` / `{B} ≠ ∅` (emptiness tests, the algebraic
/// forms of NOT EXISTS / EXISTS).
///
/// Emptiness of the subquery result for a given tuple is detected via the
/// inner block's primary key (`member_key_attr`): outer-join padding leaves
/// it NULL, and a NULL key means "not a real member". Only real members
/// participate in the quantification — this is the paper's Example 1 rule
/// ("linking selection only compares the linking attribute to the linked
/// attribute whose corresponding primary key is not null").
struct LinkingPredicate {
  enum class Kind { kQuantified, kEmpty, kNotEmpty, kAggregate };

  Kind kind = Kind::kQuantified;
  CmpOp op = CmpOp::kEq;               // kQuantified / kAggregate
  Quantifier quant = Quantifier::kAll;  // kQuantified only
  LinkAgg agg = LinkAgg::kCount;        // kAggregate only
  std::string linking_attr;  // outer atomic attribute A (not kEmpty forms)
  /// SQL also allows a constant on the outer side ("5 < ALL (...)",
  /// "0 = (SELECT count(*) ...)"); when set, linking_attr is ignored.
  bool linking_is_const = false;
  Value linking_const;
  std::string group_name;    // which subschema holds the members
  std::string linked_attr;   // member attribute B (empty for COUNT(*))
  std::string member_key_attr;  // member primary-key attribute

  /// True for NOT EXISTS / ALL / NOT IN forms — the ones whose evaluation
  /// needs the pseudo-selection when further predicates are pending.
  bool IsNegative() const;

  std::string ToString() const;
};

/// Translates a SQL linking operator into its algebraic form:
/// IN -> = SOME, NOT IN -> <> ALL, EXISTS -> {B} != empty,
/// NOT EXISTS -> {B} = empty, theta SOME / theta ALL -> themselves.
/// `cmp` is ignored for IN/NOT IN/EXISTS/NOT EXISTS.
LinkingPredicate MakeLinkingPredicate(LinkOp op, CmpOp cmp,
                                      std::string linking_attr,
                                      std::string group_name,
                                      std::string linked_attr,
                                      std::string member_key_attr);

/// Builds the scalar-aggregate form `A θ agg{B}`. `linked_attr` is empty
/// for COUNT(*).
LinkingPredicate MakeAggregateLinkingPredicate(LinkAgg agg, CmpOp cmp,
                                               std::string linking_attr,
                                               std::string group_name,
                                               std::string linked_attr,
                                               std::string member_key_attr);

/// \brief Column indices of a LinkingPredicate resolved against a concrete
/// one-level nested schema, for repeated evaluation.
struct BoundLinkingPredicate {
  LinkingPredicate pred;
  int group_index = -1;
  int linking_idx = -1;  // in parent atoms; -1 for emptiness predicates
  int linked_idx = -1;   // in member atoms; -1 for emptiness predicates
  int key_idx = -1;      // in member atoms

  static Result<BoundLinkingPredicate> Make(const LinkingPredicate& pred,
                                            const NestedSchema& schema);

  /// Evaluates the predicate for one nested tuple under SQL three-valued
  /// logic:
  ///  * SOME over the empty set is False, ALL over the empty set is True;
  ///  * a NULL on either side of a member comparison contributes Unknown;
  ///  * EXISTS / NOT EXISTS are two-valued on the member count.
  TriBool Eval(const NestedTuple& tuple) const;
};

/// \brief Incremental evaluation state for one group — the engine of the
/// fused (pipelined) nest+linking-selection of §4.2.2. Feed members one at a
/// time; Result() at any point equals BoundLinkingPredicate::Eval over the
/// members fed so far.
class LinkingAccumulator {
 public:
  LinkingAccumulator() = default;
  explicit LinkingAccumulator(const LinkingPredicate& pred);

  /// Resets for a new group with the given outer linking value (ignored for
  /// emptiness predicates). Takes the value by value so a caller can move
  /// its only copy in.
  void Reset(Value linking_value);

  /// The open group's linking value, as passed to Reset.
  const Value& linking_value() const { return linking_value_; }

  /// Adds one member: `key` the member's primary-key value, `linked` the
  /// member's linked-attribute value. NULL-key members are padding and do
  /// not count.
  void Add(const Value& key, const Value& linked) {
    if (!key.is_null()) AddMember(linked);
  }

  /// Add for a member whose key is known to be non-NULL.
  void AddMember(const Value& linked);

  /// AddMember for a quantified predicate whose member comparison
  /// Value::Apply(op, linking value, linked) is already known to be `cmp`.
  void AddComparison(TriBool cmp) {
    ++member_count_;
    acc_ = quant_ == Quantifier::kAll ? And(acc_, cmp) : Or(acc_, cmp);
  }

  TriBool Result() const;

  /// True when no further member can change the outcome (short-circuit:
  /// a False for ALL, a True for SOME, a first member for EXISTS forms).
  bool Decided() const;

 private:
  LinkingPredicate::Kind kind_ = LinkingPredicate::Kind::kQuantified;
  CmpOp op_ = CmpOp::kEq;
  Quantifier quant_ = Quantifier::kAll;
  LinkAgg agg_ = LinkAgg::kCount;
  Value linking_value_;
  TriBool acc_ = TriBool::kTrue;
  int64_t member_count_ = 0;
  // Aggregate state (kAggregate only).
  int64_t agg_inputs_ = 0;  // non-NULL linked inputs
  double sum_ = 0;
  bool sum_is_int_ = true;
  Value extreme_;
};

}  // namespace nestra

#endif  // NESTRA_NESTED_LINKING_PREDICATE_H_
