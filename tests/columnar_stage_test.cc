// Columnar stage results (DESIGN.md §8): scan, join and sort hand RowBatches
// across stage boundaries and rows appear only in the final result.
//
//  * Sort parity: the columnar SortNode (a stable permutation sort over the
//    typed key columns) must emit exactly the rows std::stable_sort with
//    Value::TotalOrderCompare gives the materialized rows — ties stay in
//    input order, NULLs first, -0.0 == 0.0, NaN equal to everything, mixed
//    int/double keys through the generic path, descending keys — for both
//    engines and at threads 1/2/8 over inputs large enough to run the
//    parallel merge.
//  * Gathers: ColumnVector::AppendRefs and AppendSelection equal a
//    per-cell AppendFrom, storage for storage, and the column hand-overs
//    of ProjectNode (duplicated outputs) and FilterNode (every row kept)
//    equal the row engine row for row.
//  * Bit identity: the paper's queries at TPC-H scale 0.2 with 5% NULLs
//    give row-identical results, identical NraStats row counts and
//    identical EXPLAIN ANALYZE stage lists across threads {1, 2, 8} x
//    {row, vectorized} engines, for every 2VL x cost-based option set.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <functional>
#include <limits>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/date.h"
#include "common/row_batch.h"
#include "exec/exec_node.h"
#include "exec/filter.h"
#include "exec/project.h"
#include "exec/sort.h"
#include "nra/executor.h"
#include "nra/profile.h"
#include "tpch/queries.h"
#include "tpch/random.h"
#include "tpch/tpch_gen.h"
#include "test_util.h"

namespace nestra {
namespace {

constexpr int kThreadDegrees[] = {1, 2, 8};

// Cell-exact equality that, unlike Value::operator==, treats a NaN as equal
// to the same NaN bits and tells -0.0 from 0.0.
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

void ExpectSameRows(const std::vector<Row>& expected,
                    const std::vector<Row>& actual,
                    const std::string& context) {
  ASSERT_EQ(expected.size(), actual.size()) << context;
  for (size_t i = 0; i < expected.size(); ++i) {
    ASSERT_EQ(expected[i].size(), actual[i].size()) << context;
    for (int c = 0; c < expected[i].size(); ++c) {
      ASSERT_TRUE(SameCell(expected[i][c], actual[i][c]))
          << context << ": row " << i << " column " << c << ": expected "
          << expected[i].ToString() << ", got " << actual[i].ToString();
    }
  }
}

// ---------- Sort parity ----------

// Columns: k_int (int64), k_dbl (float64, with -0.0 / 0.0 and optionally
// NaN), k_str (string, with ""), k_gen (declared float64 but holding int64
// and double values, so its batches go generic), k_date (date), id (the
// input position, unique — it makes every stability violation visible).
Schema SortSchema() {
  return Schema({Field("k_int", TypeId::kInt64),
                 Field("k_dbl", TypeId::kFloat64),
                 Field("k_str", TypeId::kString),
                 Field("k_gen", TypeId::kFloat64),
                 Field("k_date", TypeId::kDate),
                 Field("id", TypeId::kInt64, /*nullable=*/false)});
}

// Small key domains, so ties are everywhere; ~1 in 8 keys is NULL.
std::vector<Row> SortRows(int64_t n, bool with_nan, uint64_t seed) {
  Rng rng(seed);
  const auto null_or = [&](Value v) {
    return rng.UniformInt(0, 7) == 0 ? Value::Null() : std::move(v);
  };
  const double doubles[] = {-1.5, -0.0, 0.0, 0.5, 2.0,
                            std::numeric_limits<double>::quiet_NaN()};
  const char* strings[] = {"", "a", "ab", "b", "ba"};
  std::vector<Row> rows;
  rows.reserve(static_cast<size_t>(n));
  for (int64_t i = 0; i < n; ++i) {
    const double d = doubles[rng.UniformInt(0, with_nan ? 5 : 4)];
    // Mixed numerics in one column: 0..2 as int64 or as double, plus
    // halves. Int64(1) and Float64(1.0) compare equal, so ties span types.
    const int64_t g = rng.UniformInt(0, 5);
    Value gen = g % 2 == 0 && rng.UniformInt(0, 1) == 0
                    ? Value::Int64(g / 2)
                    : Value::Float64(static_cast<double>(g) / 2.0);
    rows.push_back(Row({null_or(Value::Int64(rng.UniformInt(0, 9))),
                        null_or(Value::Float64(d)),
                        null_or(Value::String(strings[rng.UniformInt(0, 4)])),
                        null_or(std::move(gen)),
                        null_or(Value::Date(rng.UniformInt(0, 3))),
                        Value::Int64(i)}));
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
  table.AppendBatch(std::move(batch));
  return table;
}

std::vector<Row> OracleSort(std::vector<Row> rows, const Schema& schema,
                            const std::vector<SortKey>& keys) {
  std::vector<std::pair<int, bool>> resolved;
  for (const SortKey& k : keys) {
    resolved.emplace_back(*schema.Resolve(k.column), k.ascending);
  }
  std::stable_sort(rows.begin(), rows.end(),
                   [&](const Row& a, const Row& b) {
                     for (const auto& [idx, asc] : resolved) {
                       const int c = Value::TotalOrderCompare(a[idx], b[idx]);
                       if (c != 0) return asc ? c < 0 : c > 0;
                     }
                     return false;
                   });
  return rows;
}

std::vector<std::vector<SortKey>> KeyLists() {
  return {
      {{"k_int", true}},
      {{"k_dbl", true}},
      {{"k_dbl", false}, {"k_int", true}},
      {{"k_str", true}, {"k_date", false}},
      {{"k_gen", true}},
      {{"k_gen", false}, {"k_str", false}},
      {{"k_date", true}, {"k_dbl", true}, {"k_int", false}},
  };
}

// Sorts `rows` through SortNode for both engines (the vectorized one fed a
// columnar source of `batch_rows`-row batches, the row one a row source)
// at every thread degree and checks each result against the oracle.
void CheckSortParity(const std::vector<Row>& rows, int64_t batch_rows,
                     const std::vector<std::vector<SortKey>>& key_lists,
                     const std::string& context) {
  const Schema schema = SortSchema();
  for (const std::vector<SortKey>& keys : key_lists) {
    const std::vector<Row> expected = OracleSort(rows, schema, keys);
    std::string key_text;
    for (const SortKey& k : keys) {
      key_text += " " + k.column + (k.ascending ? "" : " desc");
    }
    for (const int threads : kThreadDegrees) {
      for (const bool vectorized : {false, true}) {
        const std::string ctx = context + " keys:" + key_text +
                                " threads=" + std::to_string(threads) +
                                (vectorized ? " vectorized" : " row");
        Table input = vectorized ? ColumnarTable(schema, rows, batch_rows)
                                 : Table(schema, rows);
        SortNode sort(std::make_unique<TableSourceNode>(std::move(input)),
                      keys, threads, vectorized);
        Result<Table> out = CollectTable(&sort, vectorized);
        ASSERT_TRUE(out.ok()) << ctx << ": " << out.status().ToString();
        EXPECT_EQ(sort.stats().sort_rows, static_cast<int64_t>(rows.size()))
            << ctx;
        ExpectSameRows(expected, out->rows(), ctx);
      }
    }
  }
}

TEST(ColumnarSortTest, MatchesStableSortWithNanAndNulls) {
  // Below the parallel cutoff, so every thread degree sorts serially and a
  // NaN key (equal to everything) still has one defined stable order.
  CheckSortParity(SortRows(3000, /*with_nan=*/true, 7), 333, KeyLists(),
                  "nan/3000");
}

TEST(ColumnarSortTest, MatchesStableSortAcrossParallelMerge) {
  // More than 8,192 rows over many input batches: threads 2 and 8 run the
  // parallel run sort + merge, whose stable order equals the serial one.
  // One key list per comparator kind keeps the sanitizer runs short.
  CheckSortParity(SortRows(10000, /*with_nan=*/false, 11), 1000,
                  {{{"k_dbl", false}, {"k_int", true}},
                   {{"k_str", true}, {"k_date", false}},
                   {{"k_gen", true}}},
                  "merge/10000");
}

TEST(ColumnarSortTest, EmptyAndSingleRowInputs) {
  CheckSortParity({}, 1024, KeyLists(), "empty");
  CheckSortParity(SortRows(1, /*with_nan=*/true, 3), 1024, KeyLists(),
                  "one row");
}

// ---------- Column gathers ----------

// Storage-exact equality of two columns: the same generic flag, null
// bytes, typed slots (NULL placeholders included) and cells.
void ExpectSameColumn(const ColumnVector& want, const ColumnVector& got,
                      const std::string& context) {
  ASSERT_EQ(want.size(), got.size()) << context;
  ASSERT_EQ(want.generic(), got.generic()) << context;
  ASSERT_EQ(want.type(), got.type()) << context;
  EXPECT_EQ(want.nulls(), got.nulls()) << context;
  EXPECT_EQ(want.ints(), got.ints()) << context;
  EXPECT_EQ(want.strings(), got.strings()) << context;
  ASSERT_EQ(want.doubles().size(), got.doubles().size()) << context;
  if (!want.doubles().empty()) {
    EXPECT_EQ(0, std::memcmp(want.doubles().data(), got.doubles().data(),
                             want.doubles().size() * sizeof(double)))
        << context;
  }
  for (int64_t i = 0; i < want.size(); ++i) {
    ASSERT_TRUE(SameCell(want.GetValue(i), got.GetValue(i)))
        << context << ": cell " << i << ": expected "
        << want.GetValue(i).ToString() << ", got "
        << got.GetValue(i).ToString();
  }
}

// Three batches of SortSchema rows. k_gen (declared float64) holds only
// doubles in batches 0 and 2, which stay typed, and int64 next to double
// cells in batch 1, which goes generic.
std::vector<RowBatch> GatherSources(const Schema& schema) {
  std::vector<Row> rows = SortRows(300, /*with_nan=*/true, 5);
  std::vector<RowBatch> batches(3);
  for (size_t b = 0; b < batches.size(); ++b) {
    batches[b].Reset(schema);
    for (size_t r = b * 100; r < (b + 1) * 100; ++r) {
      Row row = rows[r];
      if (b != 1 && row[3].is_int()) {
        row[3] = Value::Float64(static_cast<double>(row[3].int64()));
      }
      batches[b].AppendRow(row);
    }
  }
  return batches;
}

TEST(ColumnGatherTest, AppendRefsMatchesPerCellAppendFrom) {
  const Schema schema = SortSchema();
  const std::vector<RowBatch> batches = GatherSources(schema);
  ASSERT_FALSE(batches[0].column(3).generic());
  ASSERT_TRUE(batches[1].column(3).generic());
  ASSERT_FALSE(batches[2].column(3).generic());
  // Refs over all three batches in a scrambled order, with repeats and
  // NULL pads; plus a list of pads only, one within a single (typed)
  // batch, and an empty list.
  Rng rng(17);
  std::vector<uint64_t> spread;
  for (int k = 0; k < 500; ++k) {
    spread.push_back(rng.UniformInt(0, 6) == 0
                         ? kNullRef
                         : PackRowRef(static_cast<size_t>(rng.UniformInt(0, 2)),
                                      rng.UniformInt(0, 99)));
  }
  std::vector<uint64_t> in_batch_two;
  for (int64_t r = 99; r >= 0; r -= 3) in_batch_two.push_back(PackRowRef(2, r));
  const std::vector<std::pair<const char*, std::vector<uint64_t>>> lists = {
      {"spread", spread},
      {"pads", std::vector<uint64_t>(7, kNullRef)},
      {"batch 2", in_batch_two},
      {"empty", {}}};
  // Each column into a destination of its own type, a destination that
  // already holds cells, and (for the date column) an int64 destination,
  // whose storage differs from the source's.
  for (int c = 0; c < schema.num_fields(); ++c) {
    std::vector<TypeId> dst_types = {schema.field(c).type};
    if (schema.field(c).type == TypeId::kDate) {
      dst_types.push_back(TypeId::kInt64);
    }
    for (const TypeId dst_type : dst_types) {
      for (const auto& [name, refs] : lists) {
        for (const bool prefilled : {false, true}) {
          const std::string ctx = schema.field(c).name + " " + name +
                                  (prefilled ? " prefilled" : "") +
                                  " into " + TypeIdToString(dst_type);
          ColumnVector want;
          want.Reset(dst_type);
          if (prefilled) {
            want.AppendFrom(batches[0].column(c), 0);
            want.AppendNull();
          }
          ColumnVector got = want;
          for (const uint64_t ref : refs) {
            if (ref == kNullRef) {
              want.AppendNull();
            } else {
              want.AppendFrom(batches[RefBatch(ref)].column(c), RefRow(ref));
            }
          }
          got.AppendRefs(batches, c, refs.data(),
                         static_cast<int64_t>(refs.size()));
          ExpectSameColumn(want, got, ctx);
        }
      }
    }
  }
}

TEST(ColumnGatherTest, AppendSelectionMatchesPerCellAppendFrom) {
  const Schema schema = SortSchema();
  const std::vector<RowBatch> batches = GatherSources(schema);
  const std::vector<int32_t> sel = {99, 0, 5, 5, 42, 17, 98, 0};
  for (int c = 0; c < schema.num_fields(); ++c) {
    for (size_t b = 0; b < batches.size(); ++b) {
      for (const std::vector<int32_t>& s : {sel, std::vector<int32_t>{}}) {
        const std::string ctx = schema.field(c).name + " batch " +
                                std::to_string(b) +
                                (s.empty() ? " empty" : "");
        ColumnVector want;
        want.Reset(schema.field(c).type);
        // A string cell turns a non-string destination generic, so the
        // per-cell fallback runs even over a typed source.
        if (b == 2) want.Append(Value::String("x"));
        ColumnVector got = want;
        for (const int32_t i : s) want.AppendFrom(batches[b].column(c), i);
        got.AppendSelection(batches[b].column(c), s);
        ExpectSameColumn(want, got, ctx);
      }
    }
  }
}

// The vectorized engine's output, from a columnar source and from a row
// source, must equal the row engine's row for row. `make` wraps a source
// in the operator under test.
void CheckAgainstRowEngine(
    const std::vector<Row>& rows,
    const std::function<ExecNodePtr(ExecNodePtr)>& make,
    const std::string& context) {
  const Schema schema = SortSchema();
  ExecNodePtr row_plan =
      make(std::make_unique<TableSourceNode>(Table(schema, rows)));
  Result<Table> want = CollectTable(row_plan.get(), /*vectorized=*/false);
  ASSERT_TRUE(want.ok()) << context << ": " << want.status().ToString();
  for (const bool columnar_source : {true, false}) {
    const std::string ctx =
        context + (columnar_source ? " columnar source" : " row source");
    Table input = columnar_source ? ColumnarTable(schema, rows, 400)
                                  : Table(schema, rows);
    ExecNodePtr plan =
        make(std::make_unique<TableSourceNode>(std::move(input)));
    Result<Table> got = CollectTable(plan.get(), /*vectorized=*/true);
    ASSERT_TRUE(got.ok()) << ctx << ": " << got.status().ToString();
    ExpectSameRows(want->rows(), got->rows(), ctx);
  }
}

TEST(ColumnGatherTest, ProjectHandsOverAndCopiesColumnsLikeRowEngine) {
  const std::vector<Row> rows = SortRows(2500, /*with_nan=*/true, 13);
  // Distinct indices (every column handed over), and duplicated ones
  // (earlier duplicates copied, the last one handed over).
  const std::vector<std::vector<std::string>> projections = {
      {"id", "k_str", "k_gen", "k_dbl"},
      {"k_str", "id", "k_str", "k_gen", "k_str", "k_gen"}};
  for (const std::vector<std::string>& columns : projections) {
    std::vector<std::string> names;
    for (size_t i = 0; i < columns.size(); ++i) {
      names.push_back("out" + std::to_string(i));
    }
    CheckAgainstRowEngine(
        rows,
        [&](ExecNodePtr source) -> ExecNodePtr {
          return std::make_unique<ProjectNode>(std::move(source), columns,
                                               names);
        },
        "project " + std::to_string(columns.size()));
  }
}

TEST(ColumnGatherTest, FilterKeepingEveryRowMatchesRowEngine) {
  const std::vector<Row> rows = SortRows(2500, /*with_nan=*/true, 19);
  // `id` is never NULL: the first predicate keeps every row of every
  // batch; the second drops one row, so the batch holding it gathers while
  // the others swap.
  CheckAgainstRowEngine(
      rows,
      [](ExecNodePtr source) -> ExecNodePtr {
        return std::make_unique<FilterNode>(
            std::move(source), Cmp(CmpOp::kGe, Col("id"), LitInt(0)));
      },
      "filter keeps all");
  CheckAgainstRowEngine(
      rows,
      [](ExecNodePtr source) -> ExecNodePtr {
        return std::make_unique<FilterNode>(
            std::move(source), Cmp(CmpOp::kNe, Col("id"), LitInt(900)));
      },
      "filter drops one");
}

// ---------- Bit identity of the paper's queries ----------

class ColumnarStageTpchTest : public ::testing::Test {
 protected:
  void SetUp() override {
    TpchConfig config;
    config.scale = 0.2;
    config.null_l_extendedprice = 0.05;
    config.null_ps_supplycost = 0.05;
    ASSERT_OK(PopulateTpch(&catalog_, config));
  }

  std::vector<std::pair<std::string, std::string>> Queries() {
    const Table* orders = *catalog_.GetTable("orders");
    const Value lo = *ColumnQuantile(*orders, "o_orderdate", 0.1);
    const Value hi = *ColumnQuantile(*orders, "o_orderdate", 0.9);
    std::vector<std::pair<std::string, std::string>> queries;
    queries.emplace_back(
        "Q1", MakeQuery1(FormatDate(lo.int64()), FormatDate(hi.int64())));
    queries.emplace_back("Q2a", MakeQuery2(1, 50, 5000, 25, OuterLink::kAny,
                                           InnerLink::kNotExists));
    queries.emplace_back("Q2b", MakeQuery2(1, 50, 5000, 25, OuterLink::kAll,
                                           InnerLink::kNotExists));
    struct Shape {
      const char* name;
      OuterLink outer;
      InnerLink inner;
    };
    const Shape shapes[] = {
        {"Q3a", OuterLink::kAll, InnerLink::kExists},
        {"Q3b", OuterLink::kAll, InnerLink::kNotExists},
        {"Q3c", OuterLink::kAny, InnerLink::kExists},
    };
    const std::pair<const char*, Query3Variant> variants[] = {
        {"a", Query3Variant::kVariantA},
        {"b", Query3Variant::kVariantB},
        {"c", Query3Variant::kVariantC}};
    for (const Shape& shape : shapes) {
      for (const auto& [vname, variant] : variants) {
        queries.emplace_back(
            std::string(shape.name) + "(" + vname + ")",
            MakeQuery3(1, 50, 5000, 25, shape.outer, shape.inner, variant));
      }
    }
    return queries;
  }

  Catalog catalog_;
};

struct QueryRun {
  Table result;
  NraStats stats;
  QueryProfile profile;
};

TEST_F(ColumnarStageTpchTest, BitIdenticalAcrossThreadsEnginesAndOptions) {
  for (const auto& [name, sql] : Queries()) {
    SCOPED_TRACE(name);
    std::vector<Row> first_answer;
    bool have_answer = false;
    for (const bool two_valued : {true, false}) {
      for (const bool cost_based : {true, false}) {
        const std::string options =
            std::string(two_valued ? "2vl" : "3vl") +
            (cost_based ? "/cost" : "/no-cost");
        std::unique_ptr<QueryRun> reference;
        for (const int threads : kThreadDegrees) {
          for (const bool vectorized : {false, true}) {
            const std::string context =
                name + " " + options + " threads=" + std::to_string(threads) +
                (vectorized ? " vectorized" : " row");
            NraOptions o = NraOptions::Optimized();
            o.two_valued = two_valued;
            o.cost_based = cost_based;
            o.num_threads = threads;
            o.vectorized = vectorized;
            o.profile = true;
            NraExecutor exec(catalog_, o);
            auto run = std::make_unique<QueryRun>();
            Result<Table> result =
                exec.ExecuteSql(sql, &run->stats, &run->profile);
            ASSERT_TRUE(result.ok())
                << context << ": " << result.status().ToString();
            run->result = std::move(*result);
            ASSERT_FALSE(run->result.columnar()) << context;
            if (reference == nullptr) {
              reference = std::move(run);
              continue;
            }
            ExpectSameRows(reference->result.rows(), run->result.rows(),
                           context);
            EXPECT_EQ(reference->stats.intermediate_rows,
                      run->stats.intermediate_rows)
                << context;
            EXPECT_EQ(reference->stats.output_rows, run->stats.output_rows)
                << context;
            const std::vector<ProfiledStage>& want =
                reference->profile.stages();
            const std::vector<ProfiledStage>& got = run->profile.stages();
            ASSERT_EQ(want.size(), got.size()) << context;
            for (size_t i = 0; i < want.size(); ++i) {
              EXPECT_EQ(want[i].label, got[i].label) << context;
              EXPECT_EQ(want[i].phase, got[i].phase) << context;
              EXPECT_EQ(want[i].rows_out, got[i].rows_out) << context;
            }
          }
        }
        // The option sets pick different plans; the answer is the same bag.
        std::vector<Row> answer = reference->result.Sorted().rows();
        if (!have_answer) {
          first_answer = std::move(answer);
          have_answer = true;
        } else {
          ExpectSameRows(first_answer, answer, name + " " + options);
        }
      }
    }
    EXPECT_TRUE(have_answer);
  }
}

}  // namespace
}  // namespace nestra
