// VectorizedPredicate's kernels against the row engine's truth table: for
// every compiled term shape, Select must keep exactly the rows for which
// IsTrue(Value::Apply(...)) holds (IS [NOT] NULL: the NULL test itself),
// in ascending order. Swept over every CmpOp; int, date, double (with
// NaN), string and generic (mixed-type) storage; int, float, NaN, string
// and NULL literals on either side; every column pair; NULLs present or
// proven absent (the 2VL compile); the term run first or after another
// term; and batch sizes 0, 1, 1023 and 1024.

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/row_batch.h"
#include "common/schema.h"
#include "common/value.h"
#include "exec/batch_predicate.h"
#include "expr/expr.h"

namespace nestra {
namespace {

constexpr CmpOp kOps[] = {CmpOp::kEq, CmpOp::kNe, CmpOp::kLt,
                          CmpOp::kLe, CmpOp::kGt, CmpOp::kGe};

const Schema& TestSchema() {
  static const Schema schema({
      Field("m", TypeId::kInt64, false),   // prefilter column, never NULL
      Field("iv", TypeId::kInt64, true),
      Field("iw", TypeId::kInt64, true),
      Field("dt", TypeId::kDate, true),
      Field("fv", TypeId::kFloat64, true),
      Field("fw", TypeId::kFloat64, true),
      Field("sv", TypeId::kString, true),
      Field("sw", TypeId::kString, true),
      Field("g", TypeId::kInt64, true),    // generic: one double among ints
  });
  return schema;
}

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

// Row `i` of an `n`-row batch. With `nulls`, column c is NULL where
// (i + c) % 5 == 0 (never on m); values repeat often so every operator
// sees ties, and the empty string and 0 equal the NULL placeholders.
Row MakeRow(int64_t i, bool nulls) {
  const std::string strs[] = {"", "a", "b", "c", "d"};
  std::vector<Value> v = {
      Value::Int64(i % 3),
      Value::Int64((i * 7) % 6),
      Value::Int64((i * 5) % 6),
      Value::Date(i % 5),
      i % 9 == 4 ? Value::Float64(kNaN) : Value::Float64((i % 8) * 0.5),
      i % 11 == 6 ? Value::Float64(kNaN) : Value::Float64(i % 5),
      Value::String(strs[i % 5]),
      Value::String(strs[(i * 3) % 5] + "c"),
      i == 0 ? Value::Float64(1.5) : Value::Int64(i % 4),
  };
  if (nulls) {
    for (size_t c = 1; c < v.size(); ++c) {
      if ((i + static_cast<int64_t>(c)) % 5 == 0) v[c] = Value::Null();
    }
  }
  return Row(std::move(v));
}

struct Data {
  std::vector<Row> rows;
  RowBatch batch;
};

std::unique_ptr<Data> MakeData(int64_t n, bool nulls) {
  auto data = std::make_unique<Data>();
  data->batch.Reset(TestSchema());
  for (int64_t i = 0; i < n; ++i) {
    data->rows.push_back(MakeRow(i, nulls));
    data->batch.AppendRow(data->rows.back());
  }
  return data;
}

// The row engine's verdict for one row.
bool Oracle(const Expr& e, const Row& row) {
  const auto value = [&](const Expr& x) {
    if (const auto* c = dynamic_cast<const ColumnRef*>(&x)) {
      return row[*TestSchema().Resolve(c->name())];
    }
    return dynamic_cast<const Literal&>(x).value();
  };
  if (const auto* conj = dynamic_cast<const AndExpr*>(&e)) {
    for (const ExprPtr& child : conj->children()) {
      if (!Oracle(*child, row)) return false;
    }
    return true;
  }
  if (const auto* isnull = dynamic_cast<const IsNullExpr*>(&e)) {
    return value(isnull->child()).is_null() != isnull->negated();
  }
  const auto& cmp = dynamic_cast<const Comparison&>(e);
  return IsTrue(Value::Apply(cmp.op(), value(cmp.lhs()), value(cmp.rhs())));
}

// Every term shape the kernels compile.
std::vector<ExprPtr> AllTerms() {
  const std::vector<std::string> cols = {"iv", "iw", "dt", "fv",
                                         "fw", "sv", "sw", "g"};
  const std::vector<Value> lits = {
      Value::Int64(-1),      Value::Int64(0),          Value::Int64(3),
      Value::Int64(100),     Value::Float64(2.5),      Value::Float64(3.0),
      Value::Float64(kNaN),  Value::Float64(-1e300),   Value::String(""),
      Value::String("c"),    Value::String("zz"),      Value::Null()};
  std::vector<ExprPtr> terms;
  for (const CmpOp op : kOps) {
    for (const std::string& c : cols) {
      for (const Value& lit : lits) {
        terms.push_back(std::make_unique<Comparison>(op, Col(c), Lit(lit)));
        terms.push_back(std::make_unique<Comparison>(op, Lit(lit), Col(c)));
      }
      for (const std::string& d : cols) {
        terms.push_back(std::make_unique<Comparison>(op, Col(c), Col(d)));
      }
    }
  }
  for (const std::string& c : cols) {
    for (const bool negated : {false, true}) {
      terms.push_back(std::make_unique<IsNullExpr>(Col(c), negated));
    }
  }
  return terms;
}

TEST(BatchPredicateTest, SelectMatchesValueApplyTruthTable) {
  const std::vector<ExprPtr> terms = AllTerms();
  int64_t all_pass = 0;
  int64_t none_pass = 0;
  for (const int64_t n : {0, 1, 1023, 1024}) {
    for (const bool nulls : {true, false}) {
      const std::unique_ptr<Data> data = MakeData(n, nulls);
      // The 2VL compile is only sound when the data has no NULLs.
      for (const bool proven : {false, true}) {
        if (proven && nulls) continue;
        const std::vector<bool> non_null(TestSchema().num_fields(), proven);
        for (const ExprPtr& term : terms) {
          for (const bool later : {false, true}) {
            // As a later term, the selection `m <> 1` runs first.
            ExprPtr pred = term->Clone();
            if (later) {
              std::vector<ExprPtr> conj;
              conj.push_back(std::make_unique<Comparison>(
                  CmpOp::kNe, Col("m"), Lit(Value::Int64(1))));
              conj.push_back(std::move(pred));
              pred = std::make_unique<AndExpr>(std::move(conj));
            }
            const std::string ctx =
                pred->ToString() + " n=" + std::to_string(n) +
                " nulls=" + std::to_string(nulls) +
                " proven=" + std::to_string(proven);
            VectorizedPredicate compiled;
            ASSERT_TRUE(VectorizedPredicate::Compile(
                pred.get(), TestSchema(), non_null, &compiled))
                << ctx;
            std::vector<int32_t> got = {-7};  // stale contents are replaced
            compiled.Select(data->batch, &got);
            std::vector<int32_t> want;
            for (int64_t i = 0; i < n; ++i) {
              if (Oracle(*pred, data->rows[static_cast<size_t>(i)])) {
                want.push_back(static_cast<int32_t>(i));
              }
            }
            ASSERT_EQ(got, want) << ctx;
            if (n == 1024 && !later) {
              all_pass += static_cast<int64_t>(want.size()) == n;
              none_pass += want.empty();
            }
          }
        }
      }
    }
  }
  // The sweep reaches both extremes, not just partial selections.
  EXPECT_GT(all_pass, 0);
  EXPECT_GT(none_pass, 0);
}

TEST(BatchPredicateTest, StorageClassesAreTheIntendedOnes) {
  const std::unique_ptr<Data> data = MakeData(1024, true);
  const RowBatch& b = data->batch;
  for (int c = 0; c < 8; ++c) EXPECT_FALSE(b.column(c).generic()) << c;
  EXPECT_TRUE(b.column(8).generic());
}

TEST(BatchPredicateTest, EmptyPredicateSelectsEveryRow) {
  const std::unique_ptr<Data> data = MakeData(1023, true);
  VectorizedPredicate all;
  ASSERT_TRUE(VectorizedPredicate::Compile(nullptr, TestSchema(), &all));
  std::vector<int32_t> sel = {5, 5};
  all.Select(data->batch, &sel);
  ASSERT_EQ(sel.size(), 1023u);
  for (int32_t i = 0; i < 1023; ++i) EXPECT_EQ(sel[i], i);
}

}  // namespace
}  // namespace nestra
