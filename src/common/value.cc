#include "common/value.h"

#include <charconv>
#include <cmath>
#include <functional>

namespace nestra {

const char* TypeIdToString(TypeId type) {
  switch (type) {
    case TypeId::kInt64:
      return "int64";
    case TypeId::kFloat64:
      return "float64";
    case TypeId::kString:
      return "string";
    case TypeId::kDate:
      return "date";
  }
  return "unknown";
}

const char* CmpOpToString(CmpOp op) {
  switch (op) {
    case CmpOp::kEq:
      return "=";
    case CmpOp::kNe:
      return "<>";
    case CmpOp::kLt:
      return "<";
    case CmpOp::kLe:
      return "<=";
    case CmpOp::kGt:
      return ">";
    case CmpOp::kGe:
      return ">=";
  }
  return "?";
}

CmpOp FlipCmpOp(CmpOp op) {
  switch (op) {
    case CmpOp::kEq:
      return CmpOp::kEq;
    case CmpOp::kNe:
      return CmpOp::kNe;
    case CmpOp::kLt:
      return CmpOp::kGt;
    case CmpOp::kLe:
      return CmpOp::kGe;
    case CmpOp::kGt:
      return CmpOp::kLt;
    case CmpOp::kGe:
      return CmpOp::kLe;
  }
  return op;
}

CmpOp NegateCmpOp(CmpOp op) {
  switch (op) {
    case CmpOp::kEq:
      return CmpOp::kNe;
    case CmpOp::kNe:
      return CmpOp::kEq;
    case CmpOp::kLt:
      return CmpOp::kGe;
    case CmpOp::kLe:
      return CmpOp::kGt;
    case CmpOp::kGt:
      return CmpOp::kLe;
    case CmpOp::kGe:
      return CmpOp::kLt;
  }
  return op;
}

std::optional<double> Value::AsDouble() const {
  if (is_int()) return static_cast<double>(int64());
  if (is_float()) return float64();
  return std::nullopt;
}

int Value::TotalOrderCompare(const Value& a, const Value& b) {
  // NULLs first.
  if (a.is_null() && b.is_null()) return 0;
  if (a.is_null()) return -1;
  if (b.is_null()) return 1;
  const bool a_num = a.is_int() || a.is_float();
  const bool b_num = b.is_int() || b.is_float();
  if (a_num && b_num) {
    if (a.is_int() && b.is_int()) {
      const int64_t x = a.int64();
      const int64_t y = b.int64();
      return x < y ? -1 : (x > y ? 1 : 0);
    }
    const double x = *a.AsDouble();
    const double y = *b.AsDouble();
    return x < y ? -1 : (x > y ? 1 : 0);
  }
  // Numerics before strings.
  if (a_num) return -1;
  if (b_num) return 1;
  const int c = a.string().compare(b.string());
  return c < 0 ? -1 : (c > 0 ? 1 : 0);
}

std::optional<int> Value::Compare(const Value& a, const Value& b) {
  if (a.is_null() || b.is_null()) return std::nullopt;
  const bool a_num = a.is_int() || a.is_float();
  const bool b_num = b.is_int() || b.is_float();
  if (a_num != b_num) return std::nullopt;  // string vs numeric: incomparable
  return TotalOrderCompare(a, b);
}

TriBool Value::Apply(CmpOp op, const Value& a, const Value& b) {
  const std::optional<int> c = Compare(a, b);
  if (!c.has_value()) return TriBool::kUnknown;
  switch (op) {
    case CmpOp::kEq:
      return MakeTriBool(*c == 0);
    case CmpOp::kNe:
      return MakeTriBool(*c != 0);
    case CmpOp::kLt:
      return MakeTriBool(*c < 0);
    case CmpOp::kLe:
      return MakeTriBool(*c <= 0);
    case CmpOp::kGt:
      return MakeTriBool(*c > 0);
    case CmpOp::kGe:
      return MakeTriBool(*c >= 0);
  }
  return TriBool::kUnknown;
}

size_t Value::Hash() const {
  if (is_null()) return 0x9e3779b97f4a7c15ULL;
  if (is_int()) {
    // Deep hash, paired with operator==: int64 1 and double 1.0 are
    // distinct values here, so they deliberately hash differently. Key
    // tables that need SQL semantics (1 = 1.0) must use SqlHash instead.
    return std::hash<int64_t>()(int64()) * 0xff51afd7ed558ccdULL;
  }
  if (is_float()) return std::hash<double>()(float64()) ^ 0xc4ceb9fe1a85ec53ULL;
  return std::hash<std::string>()(string());
}

size_t Value::SqlHash() const {
  if (is_null()) return 0x9e3779b97f4a7c15ULL;
  if (is_string()) return SqlHashString(string());
  return SqlHashNumber(*AsDouble());
}

size_t Value::SqlHashNumber(double d) {
  // Both numeric types hash through the double image so that values equated
  // by the SQL comparator (1 = 1.0) land in the same bucket. +0.0 and -0.0
  // compare equal, so canonicalize the sign before hashing.
  if (d == 0.0) d = 0.0;
  return std::hash<double>()(d) ^ 0xc4ceb9fe1a85ec53ULL;
}

size_t Value::SqlHashString(const std::string& s) {
  return std::hash<std::string>()(s);
}

std::string Value::ToString() const {
  if (is_null()) return "null";
  if (is_int()) return std::to_string(int64());
  if (is_float()) {
    const double d = float64();
    if (std::isnan(d)) return "nan";
    if (std::isinf(d)) return d < 0 ? "-inf" : "inf";
    // Shortest round-trippable form: parsing the string recovers exactly
    // this double, so CSV and catalog round-trips are lossless.
    char buf[32];
    const auto res = std::to_chars(buf, buf + sizeof(buf), d);
    return std::string(buf, res.ptr);
  }
  return string();
}

}  // namespace nestra
