#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "exec/sort.h"
#include "nested/fused_nest_select.h"
#include "nested/linking_selection.h"
#include "nested/nest.h"
#include "test_util.h"
#include "tpch/random.h"

namespace nestra {
namespace {

using testing_util::ExpectTablesEqual;
using testing_util::I;
using testing_util::MakeTable;
using testing_util::N;

// The Temp1 wide relation of the paper (see linking_selection_test.cc).
Table Temp1() {
  return MakeTable({"b", "c", "d", "e", "h", "i", "j", "l"},
                   {
                       {I(2), I(3), I(1), N(), N(), N(), N(), N()},
                       {I(3), I(4), I(2), I(1), I(2), I(1), N(), I(2)},
                       {I(3), I(4), I(2), I(2), I(7), I(2), I(5), I(1)},
                       {I(4), I(5), I(3), N(), N(), N(), N(), N()},
                       {N(), I(5), I(4), I(3), I(3), I(3), N(), N()},
                       {N(), I(5), I(4), I(4), N(), I(4), N(), N()},
                   });
}

Result<Table> RunFused(Table input, std::vector<FusedLevelSpec> levels) {
  auto sort = std::make_unique<SortNode>(
      std::make_unique<TableSourceNode>(std::move(input)),
      [&] {
        std::vector<SortKey> keys;
        for (const std::string& a : levels.back().nesting_attrs) {
          keys.push_back({a, true});
        }
        return keys;
      }());
  FusedNestSelectNode fused(std::move(sort), std::move(levels));
  return CollectTable(&fused);
}

TEST(FusedTest, TwoLevelsMatchMaterializedPipelineOnPaperData) {
  // Fused: single sort + one pass over both Query Q predicates.
  FusedLevelSpec outer;
  outer.nesting_attrs = {"b", "c", "d"};
  outer.pred =
      MakeLinkingPredicate(LinkOp::kNotIn, CmpOp::kEq, "b", "", "e", "i");
  outer.mode = SelectionMode::kStrict;
  FusedLevelSpec inner;
  inner.nesting_attrs = {"b", "c", "d", "e", "h", "i"};
  inner.pred =
      MakeLinkingPredicate(LinkOp::kAll, CmpOp::kGt, "h", "", "j", "l");
  inner.mode = SelectionMode::kPseudo;
  ASSERT_OK_AND_ASSIGN(Table fused, RunFused(Temp1(), {outer, inner}));

  ExpectTablesEqual(MakeTable({"b", "c", "d"},
                              {
                                  {I(2), I(3), I(1)},
                                  {I(3), I(4), I(2)},
                                  {I(4), I(5), I(3)},
                              }),
                    fused);
}

TEST(FusedTest, SingleLevelStrictMatchesLinkingSelect) {
  const Table input = Temp1();
  FusedLevelSpec level;
  level.nesting_attrs = {"b", "c", "d", "e", "h", "i"};
  level.pred =
      MakeLinkingPredicate(LinkOp::kAll, CmpOp::kGt, "h", "", "j", "l");
  level.mode = SelectionMode::kStrict;
  ASSERT_OK_AND_ASSIGN(Table fused, RunFused(input, {level}));

  ASSERT_OK_AND_ASSIGN(
      NestedRelation nested,
      Nest(input, {"b", "c", "d", "e", "h", "i"}, {"j", "l"}, "grp"));
  ASSERT_OK_AND_ASSIGN(
      Table materialized,
      LinkingSelect(nested,
                    MakeLinkingPredicate(LinkOp::kAll, CmpOp::kGt, "h", "grp",
                                         "j", "l"),
                    SelectionMode::kStrict));
  ExpectTablesEqual(materialized, fused);
}

TEST(FusedTest, SingleLevelPseudoPadsOutput) {
  const Table input = Temp1();
  FusedLevelSpec level;
  level.nesting_attrs = {"b", "c", "d", "e", "h", "i"};
  level.pred =
      MakeLinkingPredicate(LinkOp::kAll, CmpOp::kGt, "h", "", "j", "l");
  level.mode = SelectionMode::kPseudo;
  level.pad_attrs = {"e", "h", "i"};
  ASSERT_OK_AND_ASSIGN(Table fused, RunFused(input, {level}));

  ASSERT_OK_AND_ASSIGN(
      NestedRelation nested,
      Nest(input, {"b", "c", "d", "e", "h", "i"}, {"j", "l"}, "grp"));
  ASSERT_OK_AND_ASSIGN(
      Table materialized,
      LinkingSelect(nested,
                    MakeLinkingPredicate(LinkOp::kAll, CmpOp::kGt, "h", "grp",
                                         "j", "l"),
                    SelectionMode::kPseudo, {"e", "h", "i"}));
  ExpectTablesEqual(materialized, fused);
}

TEST(FusedTest, EmptyInputYieldsEmptyOutput) {
  Table input = MakeTable({"a", "b", "k"}, {});
  FusedLevelSpec level;
  level.nesting_attrs = {"a"};
  level.pred =
      MakeLinkingPredicate(LinkOp::kExists, CmpOp::kEq, "", "", "b", "k");
  level.mode = SelectionMode::kStrict;
  ASSERT_OK_AND_ASSIGN(Table out, RunFused(std::move(input), {level}));
  EXPECT_EQ(out.num_rows(), 0);
}

TEST(FusedTest, ExistsAndNotExists) {
  // Outer 1 has a real member, outer 2 only padding.
  Table input = MakeTable({"a", "b", "k"}, {
                                               {I(1), I(9), I(1)},
                                               {I(2), N(), N()},
                                           });
  FusedLevelSpec exists;
  exists.nesting_attrs = {"a"};
  exists.pred =
      MakeLinkingPredicate(LinkOp::kExists, CmpOp::kEq, "", "", "b", "k");
  exists.mode = SelectionMode::kStrict;
  ASSERT_OK_AND_ASSIGN(Table e, RunFused(input, {exists}));
  ExpectTablesEqual(MakeTable({"a"}, {{I(1)}}), e);

  FusedLevelSpec not_exists = exists;
  not_exists.pred =
      MakeLinkingPredicate(LinkOp::kNotExists, CmpOp::kEq, "", "", "b", "k");
  ASSERT_OK_AND_ASSIGN(Table ne, RunFused(input, {not_exists}));
  ExpectTablesEqual(MakeTable({"a"}, {{I(2)}}), ne);
}

TEST(FusedTest, GroupCountersTrackLevels) {
  Table input = MakeTable({"a", "b", "k"}, {
                                               {I(1), I(9), I(1)},
                                               {I(1), I(8), I(2)},
                                               {I(2), N(), N()},
                                           });
  auto sort = std::make_unique<SortNode>(
      std::make_unique<TableSourceNode>(std::move(input)),
      std::vector<SortKey>{{"a", true}});
  FusedLevelSpec level;
  level.nesting_attrs = {"a"};
  level.pred =
      MakeLinkingPredicate(LinkOp::kExists, CmpOp::kEq, "", "", "b", "k");
  level.mode = SelectionMode::kStrict;
  std::vector<FusedLevelSpec> levels{level};
  FusedNestSelectNode fused(std::move(sort), std::move(levels));
  ASSERT_OK_AND_ASSIGN(Table out, CollectTable(&fused));
  EXPECT_EQ(out.num_rows(), 1);
  ASSERT_EQ(fused.groups_closed().size(), 1u);
  EXPECT_EQ(fused.groups_closed()[0], 2);
}

TEST(FusedTest, RejectsNonPrefixLevels) {
  Table input = MakeTable({"a", "b", "c", "k"}, {{I(1), I(2), I(3), I(4)}});
  FusedLevelSpec outer;
  outer.nesting_attrs = {"a"};
  outer.pred =
      MakeLinkingPredicate(LinkOp::kExists, CmpOp::kEq, "", "", "b", "k");
  FusedLevelSpec inner;
  inner.nesting_attrs = {"b", "c"};  // does not contain "a"
  inner.pred =
      MakeLinkingPredicate(LinkOp::kExists, CmpOp::kEq, "", "", "b", "k");
  auto sort = std::make_unique<SortNode>(
      std::make_unique<TableSourceNode>(std::move(input)),
      std::vector<SortKey>{{"b", true}, {"c", true}});
  FusedNestSelectNode fused(std::move(sort), {outer, inner});
  EXPECT_FALSE(fused.Open().ok());
}

// ---------- Sort -> fused handoff: differential ----------
//
// NextBatch over a SortNode child reads the sort's result in place (typed
// key columns, the permutation, one gather of the emitted root rows); Next
// is the row oracle. Both must agree row for row, with each other, with
// the materialized Nest + LinkingSelect pipeline, and across thread
// counts.

constexpr int kThreadDegrees[] = {1, 2, 8};

// Cell-exact equality: a NaN equals the same NaN bits, -0.0 differs from
// 0.0, and int64 1 differs from double 1.0.
bool SameCell(const Value& a, const Value& b) {
  if (a.is_null() || b.is_null()) return a.is_null() && b.is_null();
  if (a.is_int() || b.is_int()) {
    return a.is_int() && b.is_int() && a.int64() == b.int64();
  }
  if (a.is_float() || b.is_float()) {
    if (!a.is_float() || !b.is_float()) return false;
    const double x = a.float64();
    const double y = b.float64();
    return std::memcmp(&x, &y, sizeof(double)) == 0;
  }
  return a.string() == b.string();
}

void ExpectSameRows(const Table& expected, const Table& actual,
                    const std::string& context) {
  ASSERT_EQ(expected.num_rows(), actual.num_rows()) << context;
  for (size_t i = 0; i < expected.rows().size(); ++i) {
    const Row& want = expected.rows()[i];
    const Row& got = actual.rows()[i];
    ASSERT_EQ(want.size(), got.size()) << context;
    for (int c = 0; c < want.size(); ++c) {
      ASSERT_TRUE(SameCell(want[c], got[c]))
          << context << ": row " << i << " column " << c << ": expected "
          << want.ToString() << ", got " << got.ToString();
    }
  }
}

// Three nesting levels of generated groups. Level-0 keys {a, s}; level-1
// keys add {b, g, kb}; level-2 keys add {c, u, kc}; every row carries
// d, x, kd. A member key (kb, kc, kd) is NULL for about one group or row in
// six (outer-join padding). `g` is declared float64 but holds int64 cells
// too, so its batches go generic; `b` is NaN, 0.0 or NULL with
// `with_nan` (all non-NULL values tie, so the key order stays a strict
// weak order), else -1.5, 0.5, 2.5 or NULL.
Schema HandoffSchema() {
  return Schema({Field("a", TypeId::kInt64), Field("s", TypeId::kString),
                 Field("b", TypeId::kFloat64), Field("g", TypeId::kFloat64),
                 Field("kb", TypeId::kInt64), Field("c", TypeId::kInt64),
                 Field("u", TypeId::kString), Field("kc", TypeId::kInt64),
                 Field("d", TypeId::kInt64), Field("x", TypeId::kFloat64),
                 Field("kd", TypeId::kInt64)});
}

std::vector<Row> HandoffRows(int64_t target, bool with_nan, uint64_t seed) {
  Rng rng(seed);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const char* strings[] = {"", "p", "pq", "q", "a longer string payload"};
  const auto null_or = [&](Value v, int one_in) {
    return rng.UniformInt(0, one_in - 1) == 0 ? Value::Null() : std::move(v);
  };
  const auto str = [&] { return Value::String(strings[rng.UniformInt(0, 4)]); };
  int64_t next_key = 1;
  const auto key = [&] { return null_or(Value::Int64(next_key++), 6); };
  std::vector<Row> rows;
  // The first level-0 group is one level-1/level-2 group of 1,100 rows,
  // so a group straddles the 1,024-row window however the sort orders it.
  bool big = true;
  while (static_cast<int64_t>(rows.size()) < target) {
    const Value a = null_or(Value::Int64(rng.UniformInt(0, 30)), 8);
    const Value s = null_or(str(), 8);
    const int64_t n1 = big ? 1 : rng.UniformInt(1, 4);
    for (int64_t i1 = 0; i1 < n1; ++i1) {
      const int bi = static_cast<int>(rng.UniformInt(0, 3));
      const Value b =
          bi == 0 ? Value::Null()
                  : Value::Float64(with_nan ? (bi == 1 ? nan : 0.0)
                                            : -1.5 + 2.0 * (bi - 1));
      const int64_t gi = rng.UniformInt(0, 5);
      const Value g = gi % 2 == 0 ? Value::Int64(gi / 2)
                                  : Value::Float64(static_cast<double>(gi) / 2);
      const Value kb = key();
      const int64_t n2 = big ? 1 : rng.UniformInt(1, 3);
      for (int64_t i2 = 0; i2 < n2; ++i2) {
        const Value c = Value::Int64(rng.UniformInt(0, 20));
        const Value u = null_or(str(), 8);
        const Value kc = key();
        const int64_t n3 = big ? 1100 : rng.UniformInt(1, 6);
        for (int64_t i3 = 0; i3 < n3; ++i3) {
          const double xs[] = {-1.0, 0.5, 3.0, nan};
          rows.push_back(Row(
              {a, s, b, g, kb, c, u, kc,
               null_or(Value::Int64(rng.UniformInt(0, 25)), 8),
               null_or(Value::Float64(xs[rng.UniformInt(0, with_nan ? 3 : 2)]),
                       8),
               key()}));
        }
      }
    }
    big = false;
  }
  return rows;
}

// The rows as a columnar table of `batch_rows`-row batches.
Table ColumnarTable(const Schema& schema, const std::vector<Row>& rows,
                    int64_t batch_rows) {
  Table table(schema);
  RowBatch batch;
  batch.Reset(table.schema());
  for (const Row& row : rows) {
    batch.AppendRow(row);
    if (batch.num_rows() == batch_rows) {
      table.AppendBatch(std::move(batch));
      batch = RowBatch();
      batch.Reset(table.schema());
    }
  }
  if (!batch.empty()) table.AppendBatch(std::move(batch));
  return table;
}

const std::vector<std::string> kKeys0 = {"a", "s"};
const std::vector<std::string> kKeys1 = {"a", "s", "b", "g", "kb"};
const std::vector<std::string> kKeys2 = {"a", "s", "b", "g", "kb",
                                         "c", "u", "kc"};

FusedLevelSpec Level(const std::vector<std::string>& keys,
                     LinkingPredicate pred,
                     SelectionMode mode = SelectionMode::kPseudo,
                     std::vector<std::string> pad = {}) {
  FusedLevelSpec spec;
  spec.nesting_attrs = keys;
  spec.pred = std::move(pred);
  spec.mode = mode;
  spec.pad_attrs = std::move(pad);
  return spec;
}

LinkingPredicate Quant(LinkOp op, CmpOp cmp, const std::string& linking,
                       const std::string& linked, const std::string& key) {
  return MakeLinkingPredicate(op, cmp, linking, "", linked, key);
}

LinkingPredicate Agg(LinkAgg agg, CmpOp cmp, const std::string& linking,
                     const std::string& linked, const std::string& key) {
  return MakeAggregateLinkingPredicate(agg, cmp, linking, "", linked, key);
}

struct HandoffCase {
  std::string name;
  std::vector<FusedLevelSpec> levels;
};

std::vector<HandoffCase> HandoffCases() {
  using L = LinkOp;
  using C = CmpOp;
  const SelectionMode kStrict = SelectionMode::kStrict;
  const SelectionMode kPseudo = SelectionMode::kPseudo;
  LinkingPredicate five_lt_all = Quant(L::kAll, C::kLt, "", "d", "kd");
  five_lt_all.linking_is_const = true;
  five_lt_all.linking_const = Value::Int64(5);
  return {
      // One level: the innermost members are the rows.
      {"1: b = SOME {x} (double, NaN)",
       {Level(kKeys1, Quant(L::kSome, C::kEq, "b", "x", "kd"), kPseudo,
              {"g", "kb"})}},
      {"1: b < ALL {x} (double, NaN)",
       {Level(kKeys1, Quant(L::kAll, C::kLt, "b", "x", "kd"), kStrict)}},
      {"1: a < ALL {d} (int)",
       {Level(kKeys1, Quant(L::kAll, C::kLt, "a", "d", "kd"), kStrict)}},
      {"1: g = SOME {d} (generic vs int)",
       {Level(kKeys1, Quant(L::kSome, C::kEq, "g", "d", "kd"), kPseudo,
              {"s"})}},
      {"1: s <> ALL {u} (string)",
       {Level(kKeys1, Quant(L::kNotIn, C::kEq, "s", "u", "kc"), kStrict)}},
      {"1: a > SOME {x} (int vs double)",
       {Level(kKeys1, Quant(L::kSome, C::kGt, "a", "x", "kd"), kStrict)}},
      {"1: NOT EXISTS {kd}",
       {Level(kKeys1, Quant(L::kNotExists, C::kEq, "", "d", "kd"), kPseudo,
              {"a", "b"})}},
      {"1: 5 < ALL {d}", {Level(kKeys1, five_lt_all, kStrict)}},
      {"1: a > COUNT {d}",
       {Level(kKeys1, Agg(LinkAgg::kCount, C::kGt, "a", "d", "kd"),
              kStrict)}},
      {"1: a <= SUM {d}",
       {Level(kKeys1, Agg(LinkAgg::kSum, C::kLe, "a", "d", "kd"), kPseudo,
              {"kb"})}},
      {"1: b < AVG {x}",
       {Level(kKeys1, Agg(LinkAgg::kAvg, C::kLt, "b", "x", "kd"), kStrict)}},
      {"1: g >= MIN {x}",
       {Level(kKeys1, Agg(LinkAgg::kMin, C::kGe, "g", "x", "kd"), kStrict)}},
      {"1: s = MAX {u}",
       {Level(kKeys1, Agg(LinkAgg::kMax, C::kEq, "s", "u", "kc"), kStrict)}},
      {"1: a <> COUNT(*)",
       {Level(kKeys1, Agg(LinkAgg::kCountStar, C::kNe, "a", "", "kd"),
              kStrict)}},
      // Two levels: level 0's members are level-1 groups.
      {"2: a > ALL {g} / b >= SOME {x}",
       {Level(kKeys0, Quant(L::kAll, C::kGt, "a", "g", "kb"), kStrict),
        Level(kKeys1, Quant(L::kSome, C::kGe, "b", "x", "kd"))}},
      {"2: NOT EXISTS {kb} / a <> ALL {d}",
       {Level(kKeys0, Quant(L::kNotExists, C::kEq, "", "g", "kb"), kPseudo,
              {"s"}),
        Level(kKeys1, Quant(L::kNotIn, C::kEq, "a", "d", "kd"))}},
      // Three levels.
      {"3: a <> ALL {kb} / s = SOME {u} / c < ALL {d}",
       {Level(kKeys0, Quant(L::kNotIn, C::kEq, "a", "kb", "kb"), kPseudo,
              {"s"}),
        Level(kKeys1, Quant(L::kIn, C::kEq, "s", "u", "kc")),
        Level(kKeys2, Quant(L::kAll, C::kLt, "c", "d", "kd"))}},
      {"3: EXISTS {kb} / g > SOME {c} / c > COUNT {d}",
       {Level(kKeys0, Quant(L::kExists, C::kEq, "", "g", "kb"), kStrict),
        Level(kKeys1, Quant(L::kSome, C::kGt, "g", "c", "kc")),
        Level(kKeys2, Agg(LinkAgg::kCount, C::kGt, "c", "d", "kd"))}},
  };
}

// `levels` run through SortNode + FusedNestSelectNode at `threads`: the
// vectorized engine reads a columnar source of 333-row batches, the row
// engine a row source.
Result<Table> RunHandoff(const std::vector<Row>& rows,
                         const std::vector<FusedLevelSpec>& levels,
                         int threads, bool vectorized,
                         std::vector<int64_t>* groups) {
  const Schema schema = HandoffSchema();
  Table input = vectorized ? ColumnarTable(schema, rows, 333)
                           : Table(schema, rows);
  std::vector<SortKey> keys;
  for (const std::string& a : levels.back().nesting_attrs) {
    keys.push_back({a, true});
  }
  FusedNestSelectNode fused(
      std::make_unique<SortNode>(
          std::make_unique<TableSourceNode>(std::move(input)), keys, threads,
          vectorized),
      levels);
  Result<Table> out = CollectTable(&fused, vectorized);
  *groups = fused.groups_closed();
  return out;
}

// The materialized pipeline, innermost level first: nest by the level's
// keys, then the linking selection. An inner level is a pseudo-selection
// that pads the keys it adds, so a failing group leaves a NULL member key
// (no member) in the enclosing level, as in the fused pass.
Result<Table> RunMaterialized(const std::vector<Row>& rows,
                              const std::vector<FusedLevelSpec>& levels) {
  Table cur(HandoffSchema(), rows);
  for (size_t i = levels.size(); i-- > 0;) {
    const FusedLevelSpec& spec = levels[i];
    std::vector<std::string> members;
    if (!spec.pred.linked_attr.empty()) {
      members.push_back(spec.pred.linked_attr);
    }
    if (spec.pred.member_key_attr != spec.pred.linked_attr) {
      members.push_back(spec.pred.member_key_attr);
    }
    NESTRA_ASSIGN_OR_RETURN(NestedRelation nested,
                            Nest(cur, spec.nesting_attrs, members, "grp"));
    LinkingPredicate pred = spec.pred;
    pred.group_name = "grp";
    std::vector<std::string> pad = spec.pad_attrs;
    SelectionMode mode = spec.mode;
    if (i > 0) {
      mode = SelectionMode::kPseudo;
      pad.clear();
      const std::vector<std::string>& outer = levels[i - 1].nesting_attrs;
      for (const std::string& a : spec.nesting_attrs) {
        if (std::find(outer.begin(), outer.end(), a) == outer.end()) {
          pad.push_back(a);
        }
      }
    }
    NESTRA_ASSIGN_OR_RETURN(cur, LinkingSelect(nested, pred, mode, pad));
  }
  return cur;
}

void CheckHandoff(const std::vector<Row>& rows, const std::string& data) {
  for (const HandoffCase& hc : HandoffCases()) {
    const std::string name = data + " " + hc.name;
    ASSERT_OK_AND_ASSIGN(Table materialized, RunMaterialized(rows, hc.levels));
    std::vector<int64_t> first_groups;
    Table first;
    for (const int threads : kThreadDegrees) {
      std::vector<int64_t> row_groups;
      std::vector<int64_t> vec_groups;
      ASSERT_OK_AND_ASSIGN(
          Table row, RunHandoff(rows, hc.levels, threads, false, &row_groups));
      ASSERT_OK_AND_ASSIGN(
          Table vec, RunHandoff(rows, hc.levels, threads, true, &vec_groups));
      const std::string ctx = name + " threads=" + std::to_string(threads);
      ExpectSameRows(row, vec, ctx + " row vs vectorized");
      ExpectSameRows(materialized, vec, ctx + " materialized vs vectorized");
      EXPECT_EQ(row_groups, vec_groups) << ctx;
      if (threads == 1) {
        first = std::move(vec);
        first_groups = vec_groups;
        // A strict case must both emit and drop root groups; a pseudo case
        // emits every one.
        EXPECT_GT(first.num_rows(), 0) << ctx;
        if (hc.levels[0].mode == SelectionMode::kStrict) {
          EXPECT_LT(first.num_rows(), first_groups[0]) << ctx;
        } else {
          EXPECT_EQ(first.num_rows(), first_groups[0]) << ctx;
        }
      } else {
        ExpectSameRows(first, vec, ctx + " vs threads=1");
        EXPECT_EQ(first_groups, vec_groups) << ctx;
      }
    }
  }
}

TEST(FusedHandoffTest, MatchesRowProtocolAndMaterializedWithNanKeys) {
  // Below the parallel sort cutoff (8,192 rows): every thread degree sorts
  // serially, which keeps the NaN keys' stable order defined.
  CheckHandoff(HandoffRows(3000, /*with_nan=*/true, 5), "nan/3000");
}

TEST(FusedHandoffTest, MatchesAcrossTheParallelMerge) {
  // Above the cutoff: threads 2 and 8 build the permutation with the
  // parallel run sort + merge, which must hand over the serial order.
  CheckHandoff(HandoffRows(9000, /*with_nan=*/false, 9), "merge/9000");
}

TEST(FusedHandoffTest, OtherChildrenRunTheRowProtocol) {
  // Without a SortNode child, NextBatch is the row adapter over Next.
  Table input = MakeTable({"a", "b", "k"}, {
                                               {I(1), I(9), I(1)},
                                               {I(2), N(), N()},
                                           });
  FusedLevelSpec level;
  level.nesting_attrs = {"a"};
  level.pred =
      MakeLinkingPredicate(LinkOp::kExists, CmpOp::kEq, "", "", "b", "k");
  level.mode = SelectionMode::kStrict;
  FusedNestSelectNode fused(std::make_unique<TableSourceNode>(input),
                            {level});
  ASSERT_OK_AND_ASSIGN(Table out, CollectTable(&fused, /*vectorized=*/true));
  ExpectTablesEqual(MakeTable({"a"}, {{I(1)}}), out);
  EXPECT_EQ(fused.stats().adapter_batches, 1);
}

}  // namespace
}  // namespace nestra
