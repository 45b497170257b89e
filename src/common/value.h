#ifndef NESTRA_COMMON_VALUE_H_
#define NESTRA_COMMON_VALUE_H_

#include <cstdint>
#include <optional>
#include <string>
#include <variant>

#include "common/status.h"
#include "common/tribool.h"

namespace nestra {

/// \brief Logical column types supported by the engine.
///
/// kDate is stored as days since 1970-01-01 (an int32-ranged int64); dates
/// therefore compare like integers. This is all the paper's TPC-H workload
/// needs.
enum class TypeId { kInt64, kFloat64, kString, kDate };

const char* TypeIdToString(TypeId type);

/// \brief Comparison operators used by predicates and linking predicates
/// (the paper's theta in {<, <=, >, >=, =, <>}).
enum class CmpOp { kEq, kNe, kLt, kLe, kGt, kGe };

const char* CmpOpToString(CmpOp op);

/// The operator theta' such that (a theta b) == (b theta' a).
CmpOp FlipCmpOp(CmpOp op);

/// The operator theta' such that (a theta' b) == NOT (a theta b) (under
/// two-valued logic; NULL comparisons stay Unknown either way).
CmpOp NegateCmpOp(CmpOp op);

/// \brief A dynamically typed, nullable SQL value.
///
/// NULL is represented by std::monostate. A Value does not remember its
/// declared column type; schemas carry types and the expression binder checks
/// them. Numeric comparisons promote int64 to double when the sides differ.
class Value {
 public:
  /// Creates a NULL value.
  Value() : data_(std::monostate{}) {}

  static Value Null() { return Value(); }
  static Value Int64(int64_t v) { return Value(Storage(v)); }
  static Value Float64(double v) { return Value(Storage(v)); }
  static Value String(std::string v) { return Value(Storage(std::move(v))); }
  /// A date value; `days` is days since the Unix epoch.
  static Value Date(int64_t days) { return Value(Storage(days)); }
  /// A boolean surfaced as an int64 0/1 (the engine has no bool column type).
  static Value Bool(bool b) { return Value(Storage(int64_t{b ? 1 : 0})); }

  bool is_null() const { return std::holds_alternative<std::monostate>(data_); }
  bool is_int() const { return std::holds_alternative<int64_t>(data_); }
  bool is_float() const { return std::holds_alternative<double>(data_); }
  bool is_string() const { return std::holds_alternative<std::string>(data_); }

  /// Accessors; calling the wrong one on a non-null value is a programming
  /// error (UB via std::get). Use the checked As* variants when unsure.
  int64_t int64() const { return std::get<int64_t>(data_); }
  double float64() const { return std::get<double>(data_); }
  const std::string& string() const { return std::get<std::string>(data_); }

  /// Numeric view: int64 promoted to double. Returns nullopt for NULL or
  /// string values.
  std::optional<double> AsDouble() const;

  /// Deep equality used by containers and tests: NULL equals NULL here
  /// (unlike SQL comparison semantics — use Compare for those).
  bool operator==(const Value& other) const { return data_ == other.data_; }
  bool operator!=(const Value& other) const { return !(*this == other); }

  /// A total order for sorting: NULL sorts first, then numerics (cross-type
  /// int/double compared numerically), then strings. This is the order used
  /// by the sort operator and the sort-based nest.
  static int TotalOrderCompare(const Value& a, const Value& b);

  /// SQL comparison: returns nullopt when either side is NULL or the types
  /// are incomparable (string vs numeric); otherwise <0, 0, >0.
  static std::optional<int> Compare(const Value& a, const Value& b);

  /// SQL theta-comparison under three-valued logic.
  static TriBool Apply(CmpOp op, const Value& a, const Value& b);

  /// Hash consistent with operator== (deep equality): int64 1 and double
  /// 1.0 hash differently, just as operator== distinguishes them. NOT for
  /// hash-table keys compared with SQL semantics — use SqlHash there.
  size_t Hash() const;

  /// Hash consistent with SQL key equality (TotalOrderCompare == 0, and
  /// therefore with Apply(kEq) on non-NULL operands): numerics hash through
  /// their double image so int64 1 and double 1.0 collide, as the SQL
  /// comparator requires. Used by every hash-based operator's key tables
  /// (see common/hash_key.h). int64 values beyond 2^53 may collide with
  /// nearby integers; equality disambiguates.
  size_t SqlHash() const;

  /// SqlHash of a non-NULL numeric / string value given its payload, for
  /// callers scanning typed column storage without building Values.
  static size_t SqlHashNumber(double d);
  static size_t SqlHashString(const std::string& s);

  std::string ToString() const;

 private:
  using Storage = std::variant<std::monostate, int64_t, double, std::string>;
  explicit Value(Storage s) : data_(std::move(s)) {}

  Storage data_;
};

}  // namespace nestra

#endif  // NESTRA_COMMON_VALUE_H_
