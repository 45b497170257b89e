#include <gtest/gtest.h>

#include <cstring>
#include <limits>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "exec/batch_predicate.h"
#include "exec/hash_join.h"
#include "exec/index_join.h"
#include "exec/nested_loop_join.h"
#include "exec/scan.h"
#include "test_util.h"

namespace nestra {
namespace {

using testing_util::ExpectTablesEqual;
using testing_util::I;
using testing_util::MakeTable;
using testing_util::N;

// One physical hash-join layout: thread count × engine × key hint.
enum class KeyHint { kGeneric, kPerfect, kStalePerfect };

struct Layout {
  int threads;
  bool vectorized;
  KeyHint hint;
};

std::string LayoutName(const Layout& l) {
  static const char* const kHints[] = {"generic", "perfect", "stale"};
  return "t" + std::to_string(l.threads) +
         (l.vectorized ? "_batch_" : "_row_") +
         kHints[static_cast<int>(l.hint)];
}

std::vector<Layout> AllLayouts() {
  std::vector<Layout> out;
  for (const int threads : {1, 2, 8}) {
    for (const bool vectorized : {false, true}) {
      for (const KeyHint hint :
           {KeyHint::kGeneric, KeyHint::kPerfect, KeyHint::kStalePerfect}) {
        out.push_back({threads, vectorized, hint});
      }
    }
  }
  return out;
}

// Hints for a join whose build keys lie in [key_min, key_max]. The stale
// hint is narrower than the data, so the build must fall back to the flat
// table at Open.
JoinBuildHints HintsFor(KeyHint hint, int64_t key_min, int64_t key_max) {
  JoinBuildHints h;
  if (hint == KeyHint::kGeneric) return h;
  h.perfect = true;
  h.perfect_min = key_min;
  h.perfect_max = hint == KeyHint::kPerfect ? key_max : key_min;
  return h;
}

// Runs the single-key hash join l.k = r.k under `layout`.
Result<Table> RunHashJoin(const Table& left, const Table& right,
                          JoinType type, const Expr* residual,
                          const Layout& layout, int64_t key_min,
                          int64_t key_max) {
  HashJoinNode join(std::make_unique<TableSourceNode>(left),
                    std::make_unique<TableSourceNode>(right), type,
                    {{"l.k", "r.k"}},
                    residual != nullptr ? residual->Clone() : nullptr,
                    layout.threads, layout.vectorized,
                    HintsFor(layout.hint, key_min, key_max));
  return CollectTable(&join, layout.vectorized);
}

void ExpectRowExact(const Table& want, const Table& got,
                    const std::string& context) {
  ASSERT_EQ(want.num_rows(), got.num_rows()) << context;
  for (int64_t i = 0; i < want.num_rows(); ++i) {
    ASSERT_TRUE(want.rows()[static_cast<size_t>(i)] ==
                got.rows()[static_cast<size_t>(i)])
        << context << "\nfirst divergence at row " << i << ": want "
        << want.rows()[static_cast<size_t>(i)].ToString() << ", got "
        << got.rows()[static_cast<size_t>(i)].ToString();
  }
}

// Helper that builds the join over distinctly named columns. Run executes
// every layout and insists they agree row for row before returning one.
struct JoinFixture {
  Table left = MakeTable({"l.k", "l.v"},
                         {{I(1), I(10)}, {I(2), I(20)}, {N(), I(30)},
                          {I(4), I(40)}});
  Table right = MakeTable({"r.k", "r.w"},
                          {{I(1), I(100)}, {I(1), I(101)}, {N(), I(102)},
                           {I(4), I(103)}});

  Result<Table> Run(JoinType type, ExprPtr residual = nullptr) {
    std::optional<Table> first;
    for (const Layout& layout : AllLayouts()) {
      NESTRA_ASSIGN_OR_RETURN(
          Table out, RunHashJoin(left, right, type, residual.get(), layout,
                                 /*key_min=*/1, /*key_max=*/4));
      if (!first.has_value()) {
        first = std::move(out);
        continue;
      }
      ExpectRowExact(*first, out, LayoutName(layout));
    }
    return std::move(*first);
  }
};

TEST(HashJoinTest, InnerSkipsNullKeys) {
  JoinFixture f;
  ASSERT_OK_AND_ASSIGN(Table out, f.Run(JoinType::kInner));
  // (1,1),(1,1),(4,4): 3 matches; NULL keys never match.
  EXPECT_EQ(out.num_rows(), 3);
}

TEST(HashJoinTest, LeftOuterPadsNonMatching) {
  JoinFixture f;
  ASSERT_OK_AND_ASSIGN(Table out, f.Run(JoinType::kLeftOuter));
  // 3 matches + padded rows for l.k=2 and l.k=NULL.
  EXPECT_EQ(out.num_rows(), 5);
  int padded = 0;
  for (const Row& r : out.rows()) {
    if (r[2].is_null() && r[3].is_null()) ++padded;
  }
  EXPECT_EQ(padded, 2);
}

TEST(HashJoinTest, LeftSemiEmitsEachLeftOnce) {
  JoinFixture f;
  ASSERT_OK_AND_ASSIGN(Table out, f.Run(JoinType::kLeftSemi));
  ExpectTablesEqual(MakeTable({"l.k", "l.v"}, {{I(1), I(10)}, {I(4), I(40)}}),
                    out);
}

TEST(HashJoinTest, LeftAntiKeepsNullKeyRows) {
  JoinFixture f;
  ASSERT_OK_AND_ASSIGN(Table out, f.Run(JoinType::kLeftAnti));
  // The classical antijoin: UNKNOWN counts as "no match", so the NULL-key
  // left row survives — the precise behaviour that makes antijoin != NOT IN.
  ExpectTablesEqual(MakeTable({"l.k", "l.v"}, {{I(2), I(20)}, {N(), I(30)}}),
                    out);
}

TEST(HashJoinTest, NullAwareAntiDropsEverythingWhenBuildHasNullKey) {
  JoinFixture f;
  // Build side contains a NULL key => NOT IN semantics: every probe row is
  // UNKNOWN or matched, nothing survives.
  ASSERT_OK_AND_ASSIGN(Table out, f.Run(JoinType::kLeftAntiNullAware));
  EXPECT_EQ(out.num_rows(), 0);
}

TEST(HashJoinTest, NullAwareAntiWithoutBuildNulls) {
  JoinFixture f;
  f.right = MakeTable({"r.k", "r.w"}, {{I(1), I(100)}});
  ASSERT_OK_AND_ASSIGN(Table out, f.Run(JoinType::kLeftAntiNullAware));
  // l.k=2 and l.k=4 not in {1}: kept. l.k=NULL: UNKNOWN: dropped.
  ExpectTablesEqual(MakeTable({"l.k", "l.v"}, {{I(2), I(20)}, {I(4), I(40)}}),
                    out);
}

TEST(HashJoinTest, NullAwareAntiEmptyBuildKeepsAll) {
  JoinFixture f;
  f.right = MakeTable({"r.k", "r.w"}, {});
  ASSERT_OK_AND_ASSIGN(Table out, f.Run(JoinType::kLeftAntiNullAware));
  EXPECT_EQ(out.num_rows(), 4);  // NOT IN over the empty set is TRUE
}

TEST(HashJoinTest, ResidualPredicate) {
  JoinFixture f;
  ASSERT_OK_AND_ASSIGN(
      Table out,
      f.Run(JoinType::kInner, Cmp(CmpOp::kGt, Col("r.w"), LitInt(100))));
  // Only (1,101) and (4,103) pass the residual.
  EXPECT_EQ(out.num_rows(), 2);
}

TEST(HashJoinTest, NoEquiPairsIsCrossWithCondition) {
  auto l = std::make_unique<TableSourceNode>(
      MakeTable({"l.a"}, {{I(1)}, {I(5)}}));
  auto r = std::make_unique<TableSourceNode>(
      MakeTable({"r.b"}, {{I(3)}, {I(4)}}));
  HashJoinNode join(std::move(l), std::move(r), JoinType::kInner, {},
                    Cmp(CmpOp::kLt, Col("l.a"), Col("r.b")));
  ASSERT_OK_AND_ASSIGN(Table out, CollectTable(&join));
  EXPECT_EQ(out.num_rows(), 2);  // (1,3) and (1,4)
}

// ---------- every layout against the nested-loop oracle ----------

// Keys 0..499 on the left and 0..399 on the right (two or three rows per
// right key), with NULL keys on both sides and NULL residual inputs. Both
// inputs span two batches. Besides int64 columns, each side carries a
// string and a double payload (with NULLs), and the right side a column
// declared float64 whose first batch mixes int64 and double cells (stored
// generic) while its second batch holds doubles only (stored typed).
constexpr int64_t kRightKeyMax = 399;

Table SweepLeft() {
  Table t(Schema({Field("l.k", TypeId::kInt64), Field("l.v", TypeId::kInt64),
                  Field("l.s", TypeId::kString),
                  Field("l.d", TypeId::kFloat64)}));
  for (int64_t i = 0; i < 1100; ++i) {
    t.AppendUnchecked(
        Row({i % 13 == 0 ? N() : I((i * 7) % 500), I(i),
             i % 9 == 0 ? N() : Value::String("s" + std::to_string(i % 7)),
             i % 10 == 0 ? N() : Value::Float64(0.5 * (i % 9))}));
  }
  return t;
}

Table SweepRight(int64_t rows = 1100) {
  Table t(Schema({Field("r.k", TypeId::kInt64), Field("r.w", TypeId::kInt64),
                  Field("r.s", TypeId::kString),
                  Field("r.d", TypeId::kFloat64),
                  Field("r.m", TypeId::kFloat64)}));
  for (int64_t i = 0; i < rows; ++i) {
    Value mixed = i < RowBatch::kDefaultCapacity && i % 2 == 0
                      ? I(i % 10)
                      : Value::Float64(0.5 + static_cast<double>(i % 10));
    t.AppendUnchecked(
        Row({i % 17 == 0 ? N() : I((i * 5) % 400),
             i % 11 == 0 ? N() : I((i * 3) % 1100),
             i % 8 == 0 ? N() : Value::String("s" + std::to_string(i % 5)),
             i % 12 == 0 ? N() : Value::Float64(0.25 * (i % 11)),
             i % 19 == 0 ? N() : std::move(mixed)}));
  }
  return t;
}

// The nested-loop form of the hash join's semantics. The null-aware
// antijoin (NOT IN) is the plain antijoin on a condition that also holds
// whenever either key is NULL: a NULL probe key, or any NULL build key,
// drops every probe row unless the build side is empty.
Result<Table> RunOracle(const Table& left, const Table& right, JoinType type,
                        const Expr* residual) {
  std::vector<ExprPtr> conj;
  conj.push_back(Eq(Col("l.k"), Col("r.k")));
  if (residual != nullptr) conj.push_back(residual->Clone());
  ExprPtr cond = MakeAnd(std::move(conj));
  if (type == JoinType::kLeftAntiNullAware) {
    std::vector<ExprPtr> disj;
    disj.push_back(std::move(cond));
    disj.push_back(IsNull(Col("l.k")));
    disj.push_back(IsNull(Col("r.k")));
    cond = MakeOr(std::move(disj));
    type = JoinType::kLeftAnti;
  }
  NestedLoopJoinNode nlj(std::make_unique<TableSourceNode>(left),
                         std::make_unique<TableSourceNode>(right), type,
                         std::move(cond));
  return CollectTable(&nlj);
}

class HashJoinLayoutTest : public ::testing::TestWithParam<Layout> {
 protected:
  // The oracle's answer for one (join type, residual, build) case, shared
  // by every layout.
  static const Table& Oracle(const std::string& key, const Table& left,
                             const Table& right, JoinType type,
                             const Expr* residual) {
    static std::map<std::string, Table> cache;
    auto it = cache.find(key);
    if (it == cache.end()) {
      Result<Table> want = RunOracle(left, right, type, residual);
      EXPECT_TRUE(want.ok()) << want.status().ToString();
      it = cache.emplace(key, want.ok() ? std::move(*want) : Table{}).first;
    }
    return it->second;
  }
};

TEST_P(HashJoinLayoutTest, MatchesNestedLoopOracleRowForRow) {
  const Layout& layout = GetParam();
  const Table left = SweepLeft();
  const Table full_right = SweepRight();
  const Table empty_right = SweepRight(/*rows=*/0);
  struct NamedResidual {
    const char* name;
    ExprPtr expr;
  };
  std::vector<NamedResidual> residuals;
  residuals.push_back({"none", nullptr});
  // Column-column comparison: compiles to a batch kernel.
  residuals.push_back({"compiled", Cmp(CmpOp::kGt, Col("r.w"), Col("l.v"))});
  // Compiled over the string, double and mixed payloads, so the pair batch
  // gathers every storage kind.
  {
    std::vector<ExprPtr> conj;
    conj.push_back(Cmp(CmpOp::kNe, Col("r.s"), Col("l.s")));
    conj.push_back(Cmp(CmpOp::kLe, Col("r.d"), Col("l.d")));
    conj.push_back(Cmp(CmpOp::kGt, Col("r.m"), LitFloat(2.0)));
    residuals.push_back({"compiled_payloads", MakeAnd(std::move(conj))});
  }
  // A disjunction has no batch kernel: the probe judges concatenated rows.
  {
    std::vector<ExprPtr> disj;
    disj.push_back(Cmp(CmpOp::kLt, Col("r.w"), LitInt(400)));
    disj.push_back(Cmp(CmpOp::kGt, Col("l.v"), Col("r.w")));
    residuals.push_back({"uncompiled", MakeOr(std::move(disj))});
  }
  const Schema joined = Schema::Concat(left.schema(), full_right.schema());
  VectorizedPredicate scratch;
  ASSERT_TRUE(VectorizedPredicate::Compile(residuals[1].expr.get(), joined,
                                           &scratch));
  ASSERT_TRUE(VectorizedPredicate::Compile(residuals[2].expr.get(), joined,
                                           &scratch));
  ASSERT_FALSE(VectorizedPredicate::Compile(residuals[3].expr.get(), joined,
                                            &scratch));

  for (const Table* right : {&full_right, &empty_right}) {
    for (const JoinType type :
         {JoinType::kInner, JoinType::kLeftOuter, JoinType::kLeftSemi,
          JoinType::kLeftAnti, JoinType::kLeftAntiNullAware}) {
      for (const NamedResidual& res : residuals) {
        const std::string join_case =
            std::string(JoinTypeToString(type)) + " residual=" + res.name +
            (right == &empty_right ? " empty build" : "");
        const Table& want =
            Oracle(join_case, left, *right, type, res.expr.get());
        const std::string context = LayoutName(layout) + " " + join_case;
        ASSERT_OK_AND_ASSIGN(
            Table got, RunHashJoin(left, *right, type, res.expr.get(), layout,
                                   /*key_min=*/0, kRightKeyMax));
        ExpectRowExact(want, got, context);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllLayouts, HashJoinLayoutTest,
                         ::testing::ValuesIn(AllLayouts()),
                         [](const ::testing::TestParamInfo<Layout>& info) {
                           return LayoutName(info.param);
                         });

// ---------- Typed flat-probe key compare ----------
//
// The vectorized flat probe compares keys on the typed arrays when a probe
// key column and its build column share a storage class, and as Values
// otherwise; the row probe always compares Values. Every key storage pair
// must give the row probe's answer, row for row, including NaN keys (equal
// to the same NaN: one hash, a tie) and -0.0 = 0.0.

// Cell-exact row equality (NaN bits compare equal; Value == does not).
bool SameRow(const Row& a, const Row& b) {
  if (a.size() != b.size()) return false;
  for (int c = 0; c < a.size(); ++c) {
    const Value& x = a[c];
    const Value& y = b[c];
    if (x.is_float() && y.is_float()) {
      const double dx = x.float64();
      const double dy = y.float64();
      if (std::memcmp(&dx, &dy, sizeof(double)) != 0) return false;
    } else if (!(x == y)) {
      return false;
    }
  }
  return true;
}

// Key cell `i` of one storage kind: int64, date, double (NaN, -0.0, 0.0,
// 1.5 and integral values), string, or a float64 column holding int64
// cells too (generic).
enum class KeyKind { kInt, kDate, kDouble, kString, kGeneric };

TypeId KeyType(KeyKind kind) {
  switch (kind) {
    case KeyKind::kInt:
      return TypeId::kInt64;
    case KeyKind::kDate:
      return TypeId::kDate;
    case KeyKind::kString:
      return TypeId::kString;
    case KeyKind::kDouble:
    case KeyKind::kGeneric:
      return TypeId::kFloat64;
  }
  return TypeId::kInt64;
}

Value KeyCell(KeyKind kind, int64_t i) {
  if (i % 11 == 0) return N();
  const int64_t v = (i * 7) % 24;
  switch (kind) {
    case KeyKind::kInt:
      return I(v);
    case KeyKind::kDate:
      return Value::Date(v);
    case KeyKind::kString:
      return Value::String("k" + std::to_string(v));
    case KeyKind::kDouble: {
      const double ds[] = {std::numeric_limits<double>::quiet_NaN(), -0.0,
                           0.0, 1.0, 1.5, 2.0};
      return Value::Float64(v < 6 ? ds[v] : static_cast<double>(v));
    }
    case KeyKind::kGeneric:
      return v % 2 == 0 ? I(v) : Value::Float64(static_cast<double>(v));
  }
  return N();
}

Table KeyTable(const std::string& prefix, KeyKind k1, KeyKind k2,
               int64_t rows) {
  Table t(Schema({Field(prefix + ".k", KeyType(k1)),
                  Field(prefix + ".j", KeyType(k2)),
                  Field(prefix + ".v", TypeId::kInt64)}));
  for (int64_t i = 0; i < rows; ++i) {
    t.AppendUnchecked(Row({KeyCell(k1, i), KeyCell(k2, i / 3), I(i)}));
  }
  return t;
}

TEST(HashJoinKeyStorageTest, TypedProbeMatchesRowProbeOnEveryKeyStorage) {
  struct Case {
    KeyKind left;
    KeyKind right;
  };
  // Typed pairs first, then the pairs that must stay on Values.
  const Case cases[] = {
      {KeyKind::kInt, KeyKind::kInt},         {KeyKind::kInt, KeyKind::kDate},
      {KeyKind::kDouble, KeyKind::kDouble},   {KeyKind::kString, KeyKind::kString},
      {KeyKind::kInt, KeyKind::kDouble},      {KeyKind::kGeneric, KeyKind::kInt},
      {KeyKind::kDouble, KeyKind::kGeneric},  {KeyKind::kString, KeyKind::kInt},
  };
  for (const Case& c : cases) {
    // Two equality keys: the case's pair, and the same pair swapped.
    // The build side spans two batches; a generic key column is generic
    // in both.
    const Table left = KeyTable("l", c.left, c.right, 400);
    const Table right = KeyTable("r", c.right, c.left, 1100);
    const bool comparable = (c.left == KeyKind::kString) ==
                            (c.right == KeyKind::kString);
    for (const JoinType type : {JoinType::kInner, JoinType::kLeftOuter}) {
      for (const size_t keys : {size_t{1}, size_t{2}}) {
        std::vector<EquiPair> equi = {{"l.k", "r.k"}, {"l.j", "r.j"}};
        equi.resize(keys);
        const std::string context =
            "left kind " + std::to_string(static_cast<int>(c.left)) +
            " right kind " + std::to_string(static_cast<int>(c.right)) +
            " " + JoinTypeToString(type) + " keys=" + std::to_string(keys);
        std::optional<Table> want;
        for (const Layout layout :
             {Layout{1, false, KeyHint::kGeneric},
              Layout{1, true, KeyHint::kGeneric},
              Layout{2, true, KeyHint::kGeneric}}) {
          HashJoinNode join(std::make_unique<TableSourceNode>(left),
                            std::make_unique<TableSourceNode>(right), type,
                            equi, nullptr, layout.threads, layout.vectorized);
          ASSERT_OK_AND_ASSIGN(Table got,
                               CollectTable(&join, layout.vectorized));
          if (!want.has_value()) {
            if (comparable && type == JoinType::kInner) {
              EXPECT_GT(got.num_rows(), 0) << context;
            }
            want = std::move(got);
            continue;
          }
          ASSERT_EQ(want->num_rows(), got.num_rows())
              << context << " " << LayoutName(layout);
          for (size_t i = 0; i < got.rows().size(); ++i) {
            ASSERT_TRUE(SameRow(want->rows()[i], got.rows()[i]))
                << context << " " << LayoutName(layout) << " row " << i
                << ": want " << want->rows()[i].ToString() << ", got "
                << got.rows()[i].ToString();
          }
        }
      }
    }
  }
}

TEST(NestedLoopJoinTest, MatchesHashJoinOnEquality) {
  JoinFixture f;
  auto l = std::make_unique<TableSourceNode>(f.left);
  auto r = std::make_unique<TableSourceNode>(f.right);
  NestedLoopJoinNode nlj(std::move(l), std::move(r), JoinType::kLeftOuter,
                         Eq(Col("l.k"), Col("r.k")));
  ASSERT_OK_AND_ASSIGN(Table nlj_out, CollectTable(&nlj));
  ASSERT_OK_AND_ASSIGN(Table hash_out, f.Run(JoinType::kLeftOuter));
  EXPECT_TRUE(Table::BagEquals(nlj_out, hash_out));
}

TEST(NestedLoopJoinTest, CrossProductWithNullCondition) {
  auto l = std::make_unique<TableSourceNode>(MakeTable({"a"}, {{I(1)}, {I(2)}}));
  auto r = std::make_unique<TableSourceNode>(MakeTable({"b"}, {{I(3)}}));
  NestedLoopJoinNode nlj(std::move(l), std::move(r), JoinType::kInner,
                         nullptr);
  ASSERT_OK_AND_ASSIGN(Table out, CollectTable(&nlj));
  EXPECT_EQ(out.num_rows(), 2);
}

TEST(NestedLoopJoinTest, LeftOuterCrossPadsOnEmptyRight) {
  auto l = std::make_unique<TableSourceNode>(MakeTable({"a"}, {{I(1)}}));
  auto r = std::make_unique<TableSourceNode>(MakeTable({"b"}, {}));
  NestedLoopJoinNode nlj(std::move(l), std::move(r), JoinType::kLeftOuter,
                         nullptr);
  ASSERT_OK_AND_ASSIGN(Table out, CollectTable(&nlj));
  ASSERT_EQ(out.num_rows(), 1);
  EXPECT_TRUE(out.rows()[0][1].is_null());
}

TEST(IndexJoinTest, SemiProbesIndex) {
  const Table right = MakeTable({"k", "w"}, {{I(1), I(7)}, {I(2), I(8)}});
  const HashIndex index(right, 0);
  auto l = std::make_unique<TableSourceNode>(
      MakeTable({"l.k"}, {{I(1)}, {I(3)}, {N()}}));
  IndexJoinNode join(std::move(l), &right, "r", &index, "l.k",
                     JoinType::kLeftSemi, nullptr);
  ASSERT_OK_AND_ASSIGN(Table out, CollectTable(&join));
  ExpectTablesEqual(MakeTable({"l.k"}, {{I(1)}}), out);
  EXPECT_EQ(join.probe_count(), 3);
}

TEST(IndexJoinTest, LeftOuterWithResidual) {
  const Table right = MakeTable({"k", "w"}, {{I(1), I(7)}, {I(1), I(9)}});
  const HashIndex index(right, 0);
  auto l = std::make_unique<TableSourceNode>(MakeTable({"l.k"}, {{I(1)}}));
  IndexJoinNode join(std::move(l), &right, "r", &index, "l.k",
                     JoinType::kLeftOuter,
                     Cmp(CmpOp::kGt, Col("r.w"), LitInt(8)));
  ASSERT_OK_AND_ASSIGN(Table out, CollectTable(&join));
  ASSERT_EQ(out.num_rows(), 1);
  EXPECT_EQ(out.rows()[0][2], I(9));
}

TEST(IndexJoinTest, AntiJoin) {
  const Table right = MakeTable({"k"}, {{I(1)}});
  const HashIndex index(right, 0);
  auto l = std::make_unique<TableSourceNode>(
      MakeTable({"l.k"}, {{I(1)}, {I(2)}}));
  IndexJoinNode join(std::move(l), &right, "r", &index, "l.k",
                     JoinType::kLeftAnti, nullptr);
  ASSERT_OK_AND_ASSIGN(Table out, CollectTable(&join));
  ExpectTablesEqual(MakeTable({"l.k"}, {{I(2)}}), out);
}

}  // namespace
}  // namespace nestra
