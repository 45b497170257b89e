// Referenced stage results (RowRefs, DESIGN.md §8): the base scan and the
// vectorized hash join leave row references into shared batches instead of
// copies of their cells, and the join, the sort and the fused pass read
// them in place. These tests pin that the references stand for exactly the
// rows a copy would have held:
//  * Materializing a referenced body equals the per-cell AppendFrom gather,
//    storage for storage: int, date, double with NaN, string with "", a
//    generic (mixed int/double) mirror granule, kNullRef pads, and
//    0/1/1,023/1,024/2,500 rows.
//  * TableBytes of a referenced body equals TableBytes of its materialized
//    form, and a gather's ByteSize is what SourceColumn predicts.
//  * The hash-join layout sweep (threads 1/2/8 × row/vectorized × key
//    hint) over inputs referenced by a scan and by a join made at the same
//    thread degree, row for row against the row probe over the
//    materialized inputs.
//  * The sort → fused handoff over a join-referenced input, against the
//    row protocol over the materialized input, at threads 1/2/8.
//  * A referenced scan result outlives a drop and re-register of its table.

#include <gtest/gtest.h>

#include <cstring>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/memory_tracker.h"
#include "common/row_refs.h"
#include "exec/hash_join.h"
#include "exec/sort.h"
#include "nested/fused_nest_select.h"
#include "nra/planner.h"
#include "plan/binder.h"
#include "server/connection_manager.h"
#include "storage/catalog.h"
#include "storage/columnar_mirror.h"
#include "test_util.h"
#include "tpch/random.h"

namespace nestra {
namespace {

using testing_util::I;
using testing_util::N;

constexpr int kThreadDegrees[] = {1, 2, 8};

// Cell-exact equality: a NaN equals the same NaN bits, and int64 1 differs
// from double 1.0.
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

void ExpectSameRows(const Table& want, const Table& got,
                    const std::string& context) {
  ASSERT_EQ(want.num_rows(), got.num_rows()) << context;
  for (size_t i = 0; i < want.rows().size(); ++i) {
    const Row& w = want.rows()[i];
    const Row& g = got.rows()[i];
    ASSERT_EQ(w.size(), g.size()) << context;
    for (int c = 0; c < w.size(); ++c) {
      ASSERT_TRUE(SameCell(w[c], g[c]))
          << context << ": row " << i << " column " << c << ": want "
          << w.ToString() << ", got " << g.ToString();
    }
  }
}

// A row-bodied copy of `t`, materialized once.
Table Materialized(const Table& t) {
  Table copy = t;
  copy.rows();
  return copy;
}

// ---------- Materialization vs the per-cell AppendFrom oracle ----------

// One column per storage kind. `m` is declared float64: rows below 1,024
// (the mirror's first granule) alternate int64 and double cells, so that
// granule stores it generic while the others store it typed.
Schema StorageSchema() {
  return Schema({Field("i", TypeId::kInt64), Field("t", TypeId::kDate),
                 Field("f", TypeId::kFloat64), Field("s", TypeId::kString),
                 Field("m", TypeId::kFloat64)});
}

Table StorageTable(int64_t rows) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  Table t(StorageSchema());
  for (int64_t r = 0; r < rows; ++r) {
    const Value mixed = r < kZoneGranuleRows && r % 2 == 0
                            ? I(r % 50)
                            : Value::Float64(0.25 * static_cast<double>(r % 9));
    t.AppendUnchecked(Row(
        {r % 7 == 0 ? N() : I(r * 3 - 500),
         r % 11 == 0 ? N() : Value::Date(10000 + r % 400),
         r % 5 == 0 ? N() : Value::Float64(r % 13 == 0 ? nan : 0.5 * (r % 17)),
         r % 9 == 0 ? N() : Value::String(r % 4 == 0 ? "" : "s" +
                                              std::to_string(r % 23)),
         r % 8 == 0 ? N() : mixed}));
  }
  return t;
}

// The rows as batches of `batch_rows` rows.
std::vector<RowBatch> Batches(const Table& t, int64_t batch_rows) {
  std::vector<RowBatch> out;
  for (size_t r = 0; r < t.rows().size(); ++r) {
    if (r % static_cast<size_t>(batch_rows) == 0) {
      out.emplace_back().Reset(t.schema());
    }
    out.back().AppendRow(t.rows()[r]);
  }
  return out;
}

// Packed refs to `n` pseudo-random rows of `batches`, about one in
// `pad_one_in` a kNullRef pad (0: none).
std::vector<uint64_t> RandomRefs(const std::vector<RowBatch>& batches,
                                 int64_t n, int pad_one_in, uint64_t seed) {
  Rng rng(seed);
  std::vector<uint64_t> refs;
  for (int64_t k = 0; k < n; ++k) {
    if (pad_one_in > 0 && rng.UniformInt(0, pad_one_in - 1) == 0) {
      refs.push_back(kNullRef);
      continue;
    }
    const size_t b = static_cast<size_t>(
        rng.UniformInt(0, static_cast<int64_t>(batches.size()) - 1));
    refs.push_back(
        PackRowRef(b, rng.UniformInt(0, batches[b].num_rows() - 1)));
  }
  return refs;
}

// A relation of `n` rows over two sources: the columns of a mirror's
// granules (every storage kind, one generic granule) and the same columns
// of 333-row batches, whose refs carry pads. Output columns interleave the
// two sources.
struct TwoSourceRelation {
  std::shared_ptr<const ColumnarMirror> mirror;
  Schema schema;
  RowRefs refs;
};

TwoSourceRelation MakeRelation(int64_t n) {
  TwoSourceRelation rel;
  const Table base = StorageTable(2500);
  auto mirror = std::make_shared<ColumnarMirror>(base);
  rel.mirror = mirror;
  // The mirror's first granule stores `m` generic, the others typed.
  EXPECT_TRUE(mirror->granule(0).column(4).generic());
  EXPECT_FALSE(mirror->granule(1).column(4).generic());
  auto batches = std::make_shared<const std::vector<RowBatch>>(
      Batches(StorageTable(1000), 333));
  rel.refs.sources.emplace_back(mirror, &mirror->granules());
  rel.refs.sources.push_back(batches);
  rel.refs.refs.push_back(RandomRefs(mirror->granules(), n, 0, 7));
  rel.refs.refs.push_back(RandomRefs(*batches, n, 4, 11));
  std::vector<Field> fields;
  const Schema storage = StorageSchema();
  for (int c = 0; c < storage.num_fields(); ++c) {
    for (int s = 0; s < 2; ++s) {
      rel.refs.columns.push_back({s, c});
      Field f = storage.field(c);
      f.name = (s == 0 ? "g." : "b.") + f.name;
      fields.push_back(f);
    }
  }
  rel.schema = Schema(std::move(fields));
  return rel;
}

// Storage-for-storage equality of two columns.
void ExpectSameStorage(const ColumnVector& want, const ColumnVector& got,
                       const std::string& context) {
  ASSERT_EQ(want.generic(), got.generic()) << context;
  ASSERT_EQ(want.nulls(), got.nulls()) << context;
  if (want.generic()) {
    ASSERT_EQ(want.values().size(), got.values().size()) << context;
    for (size_t i = 0; i < want.values().size(); ++i) {
      ASSERT_TRUE(SameCell(want.values()[i], got.values()[i]))
          << context << " cell " << i;
    }
    return;
  }
  ASSERT_EQ(want.ints(), got.ints()) << context;
  ASSERT_EQ(want.strings(), got.strings()) << context;
  ASSERT_EQ(want.doubles().size(), got.doubles().size()) << context;
  for (size_t i = 0; i < want.doubles().size(); ++i) {
    ASSERT_TRUE(SameCell(Value::Float64(want.doubles()[i]),
                         Value::Float64(got.doubles()[i])))
        << context << " cell " << i;
  }
}

const int64_t kRowCounts[] = {0, 1, 1023, 1024, 2500};

TEST(RowRefsMaterializeTest, MatchesPerCellAppendFromStorageForStorage) {
  for (const int64_t n : kRowCounts) {
    const std::string ctx = "rows " + std::to_string(n);
    TwoSourceRelation rel = MakeRelation(n);
    const RowRefs refs = rel.refs;
    Table table(rel.schema, std::move(rel.refs));
    EXPECT_EQ(table.referenced(), n > 0) << ctx;
    ASSERT_EQ(table.num_rows(), n) << ctx;
    const std::vector<RowBatch>& batches = table.batches();
    EXPECT_FALSE(table.referenced()) << ctx;
    ASSERT_EQ(static_cast<int64_t>(batches.size()),
              (n + RowBatch::kDefaultCapacity - 1) /
                  RowBatch::kDefaultCapacity)
        << ctx;
    int64_t begin = 0;
    for (size_t w = 0; w < batches.size(); ++w) {
      const int64_t end = begin + batches[w].num_rows();
      ASSERT_EQ(batches[w].num_rows(),
                std::min(n - begin, RowBatch::kDefaultCapacity))
          << ctx;
      for (int c = 0; c < rel.schema.num_fields(); ++c) {
        const RowRefs::Column& col = refs.columns[static_cast<size_t>(c)];
        const std::vector<RowBatch>& src =
            *refs.sources[static_cast<size_t>(col.source)];
        const std::vector<uint64_t>& r =
            refs.refs[static_cast<size_t>(col.source)];
        ColumnVector want;
        want.Reset(rel.schema.field(c).type);
        for (int64_t k = begin; k < end; ++k) {
          const uint64_t ref = r[static_cast<size_t>(k)];
          if (ref == kNullRef) {
            want.AppendNull();
          } else {
            want.AppendFrom(src[RefBatch(ref)].column(col.column),
                            RefRow(ref));
          }
        }
        ExpectSameStorage(want, batches[w].column(c),
                          ctx + " window " + std::to_string(w) + " column " +
                              rel.schema.field(c).name);
        // SourceColumn predicts the gathered column's footprint.
        EXPECT_EQ(SourceColumn(src, col.column)
                      .GatheredByteSize(rel.schema.field(c).type,
                                        r.data() + begin, end - begin),
                  want.ByteSize())
            << ctx << " column " << rel.schema.field(c).name;
      }
      begin = end;
    }
  }
}

TEST(RowRefsMaterializeTest, SourceGathersTheSameRowsWindowByWindow) {
  for (const int64_t n : kRowCounts) {
    const std::string ctx = "rows " + std::to_string(n);
    const TwoSourceRelation rel = MakeRelation(n);
    const Table table(rel.schema, rel.refs);
    const Table want = Materialized(table);
    // NextBatch on a referenced body gathers; HandOffRefs moves it out.
    TableSourceNode source(table);
    ASSERT_OK_AND_ASSIGN(Table batched, CollectTable(&source, false));
    ExpectSameRows(want, batched, ctx + " row replay");
    TableSourceNode by_batch(table);
    ASSERT_OK(by_batch.Open());
    Table gathered(rel.schema);
    RowBatch batch;
    bool eof = false;
    while (true) {
      ASSERT_OK(by_batch.NextBatch(&batch, &eof));
      if (eof) break;
      EXPECT_LE(batch.num_rows(), RowBatch::kDefaultCapacity) << ctx;
      gathered.AppendBatch(std::move(batch));
      batch = RowBatch();
    }
    by_batch.Close();
    ExpectSameRows(want, gathered, ctx + " batch replay");
    TableSourceNode handed(table);
    ASSERT_OK_AND_ASSIGN(Table refs, CollectTable(&handed, true));
    EXPECT_EQ(refs.referenced(), n > 0) << ctx;
    ExpectSameRows(want, refs, ctx + " hand-over");
  }
}

// ---------- Accounting ----------

TEST(RowRefsBytesTest, ReferencedBytesEqualMaterializedBytes) {
  for (const int64_t n : kRowCounts) {
    const std::string ctx = "rows " + std::to_string(n);
    const TwoSourceRelation rel = MakeRelation(n);
    const Table table(rel.schema, rel.refs);
    const int64_t referenced = TableBytes(table);
    EXPECT_EQ(referenced, RowRefsBytes(rel.refs)) << ctx;
    Table columnar = table;
    int64_t batch_bytes = 0;
    for (const RowBatch& b : columnar.batches()) batch_bytes += BatchRowBytes(b);
    EXPECT_EQ(referenced, batch_bytes) << ctx;
    EXPECT_EQ(referenced, TableBytes(columnar)) << ctx;
    int64_t row_bytes = 0;
    for (const Row& r : columnar.rows()) row_bytes += RowBytes(r);
    EXPECT_EQ(referenced, row_bytes) << ctx;
    EXPECT_EQ(referenced, TableBytes(columnar)) << ctx;
    if (n > 0) {
      // The relation carries string payloads, so a count that left them
      // out would differ.
      EXPECT_GT(referenced,
                n * static_cast<int64_t>(sizeof(Row) +
                                         rel.refs.columns.size() *
                                             sizeof(Value)))
          << ctx;
    }
  }
}

// ---------- Hash-join layout sweep over referenced inputs ----------

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

// The layouts at one thread degree: both engines, every key hint.
std::vector<Layout> LayoutsAt(int threads) {
  std::vector<Layout> out;
  for (const bool vectorized : {false, true}) {
    for (const KeyHint hint :
         {KeyHint::kGeneric, KeyHint::kPerfect, KeyHint::kStalePerfect}) {
      out.push_back({threads, vectorized, hint});
    }
  }
  return out;
}

JoinBuildHints HintsFor(KeyHint hint, int64_t key_min, int64_t key_max) {
  JoinBuildHints h;
  if (hint == KeyHint::kGeneric) return h;
  h.perfect = true;
  h.perfect_min = key_min;
  h.perfect_max = hint == KeyHint::kPerfect ? key_max : key_min;
  return h;
}

// The sweep's base relations (bare column names; the scans qualify them):
// NULL keys on both sides, string, double and, on the right, a float64
// column that is generic in its first granule. Primary keys: lt.v, rt.id.
constexpr int64_t kRightKeyMax = 399;

Table SweepLeftBase(int64_t rows = 1100) {
  Table t(Schema({Field("k", TypeId::kInt64), Field("v", TypeId::kInt64),
                  Field("s", TypeId::kString), Field("d", TypeId::kFloat64)}));
  for (int64_t i = 0; i < rows; ++i) {
    t.AppendUnchecked(
        Row({i % 13 == 0 ? N() : I((i * 7) % 500), I(i),
             i % 9 == 0 ? N() : Value::String("s" + std::to_string(i % 7)),
             i % 10 == 0 ? N() : Value::Float64(0.5 * (i % 9))}));
  }
  return t;
}

Table SweepRightBase(int64_t rows = 1100) {
  Table t(Schema({Field("k", TypeId::kInt64), Field("w", TypeId::kInt64),
                  Field("s", TypeId::kString), Field("d", TypeId::kFloat64),
                  Field("m", TypeId::kFloat64), Field("id", TypeId::kInt64)}));
  for (int64_t i = 0; i < rows; ++i) {
    Value mixed = i < RowBatch::kDefaultCapacity && i % 2 == 0
                      ? I(i % 10)
                      : Value::Float64(0.5 + static_cast<double>(i % 10));
    t.AppendUnchecked(
        Row({i % 17 == 0 ? N() : I((i * 5) % 400),
             i % 11 == 0 ? N() : I((i * 3) % 1100),
             i % 8 == 0 ? N() : Value::String("s" + std::to_string(i % 5)),
             i % 12 == 0 ? N() : Value::Float64(0.25 * (i % 11)),
             i % 19 == 0 ? N() : std::move(mixed), I(i)}));
  }
  return t;
}

// A relation of `rows` ids, its column qualified by `alias`.
Table Ids(const std::string& alias, int64_t rows) {
  Table t(Schema({Field(alias + ".id", TypeId::kInt64)}));
  for (int64_t i = 0; i < rows; ++i) t.AppendUnchecked(Row({I(i)}));
  return t;
}

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

// The row probe (one thread, generic table) over the row-bodied forms of
// the inputs: the oracle join_test.cc checks against the nested-loop join.
Result<Table> RunRowProbe(const Table& left, const Table& right,
                          JoinType type, const Expr* residual) {
  return RunHashJoin(Materialized(left), Materialized(right), type, residual,
                     {1, false, KeyHint::kGeneric}, 0, kRightKeyMax);
}

struct NamedResidual {
  const char* name;
  ExprPtr expr;
};

std::vector<NamedResidual> SweepResiduals() {
  std::vector<NamedResidual> residuals;
  residuals.push_back({"none", nullptr});
  residuals.push_back({"compiled", Cmp(CmpOp::kGt, Col("r.w"), Col("l.v"))});
  {
    std::vector<ExprPtr> conj;
    conj.push_back(Cmp(CmpOp::kNe, Col("r.s"), Col("l.s")));
    conj.push_back(Cmp(CmpOp::kLe, Col("r.d"), Col("l.d")));
    conj.push_back(Cmp(CmpOp::kGt, Col("r.m"), LitFloat(2.0)));
    residuals.push_back({"compiled_payloads", MakeAnd(std::move(conj))});
  }
  {
    std::vector<ExprPtr> disj;
    disj.push_back(Cmp(CmpOp::kLt, Col("r.w"), LitInt(400)));
    disj.push_back(Cmp(CmpOp::kGt, Col("l.v"), Col("r.w")));
    residuals.push_back({"uncompiled", MakeOr(std::move(disj))});
  }
  return residuals;
}

// Every layout at `threads`, join type and residual over (left, right),
// row for row against the row probe over their materialized forms. The inputs
// are made at the same thread degree and are the same rows at every
// degree, so `oracles` keeps each case's answer (keyed by `inputs` and the
// case) for the next degree.
void SweepJoins(const Table& left, const Table& right, int threads,
                const std::string& inputs, const std::string& context,
                std::map<std::string, Table>* oracles) {
  ASSERT_TRUE(left.referenced()) << context;
  const std::vector<NamedResidual> residuals = SweepResiduals();
  for (const JoinType type :
       {JoinType::kInner, JoinType::kLeftOuter, JoinType::kLeftSemi,
        JoinType::kLeftAnti, JoinType::kLeftAntiNullAware}) {
    for (const NamedResidual& res : residuals) {
      const std::string key = inputs + " " + JoinTypeToString(type) +
                              " residual=" + res.name;
      const std::string join_case = context + " " + key;
      auto it = oracles->find(key);
      if (it == oracles->end()) {
        ASSERT_OK_AND_ASSIGN(Table want,
                             RunRowProbe(left, right, type, res.expr.get()));
        it = oracles->emplace(key, std::move(want)).first;
      }
      const Table& want = it->second;
      for (const Layout& layout : LayoutsAt(threads)) {
        ASSERT_OK_AND_ASSIGN(
            Table got, RunHashJoin(left, right, type, res.expr.get(), layout,
                                   /*key_min=*/0, kRightKeyMax));
        if (layout.vectorized && right.num_rows() > 0) {
          EXPECT_TRUE(got.referenced() || got.num_rows() == 0)
              << join_case << " " << LayoutName(layout);
        }
        ExpectSameRows(want, got, join_case + " " + LayoutName(layout));
      }
    }
  }
}

class RowRefsJoinTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_OK(catalog_.RegisterTable("lt", SweepLeftBase(), "v"));
    ASSERT_OK(catalog_.RegisterTable("rt", SweepRightBase(), "id"));
  }

  // The referenced scan result of `sql` at `threads`.
  Result<Table> Scan(const std::string& sql, int threads) {
    NESTRA_ASSIGN_OR_RETURN(QueryBlockPtr block, ParseAndBind(sql, catalog_));
    return EvalBlockBase(*block, catalog_, block->attributes, threads,
                         /*profile=*/nullptr, /*vectorized=*/true,
                         /*two_valued=*/false, /*cost_based=*/false);
  }

  Catalog catalog_;
};

TEST_F(RowRefsJoinTest, LayoutSweepOverScanReferencedInputs) {
  std::map<std::string, Table> oracles;
  for (const int threads : kThreadDegrees) {
    const std::string ctx = "scan threads=" + std::to_string(threads);
    ASSERT_OK_AND_ASSIGN(Table left,
                         Scan("select * from lt l where l.v <> 7", threads));
    ASSERT_OK_AND_ASSIGN(Table right,
                         Scan("select * from rt r where r.w >= 3", threads));
    ASSERT_OK_AND_ASSIGN(Table empty,
                         Scan("select * from rt r where r.w > 5000", threads));
    ASSERT_TRUE(right.referenced()) << ctx;
    ASSERT_EQ(empty.num_rows(), 0) << ctx;
    SweepJoins(left, right, threads, "scan", ctx, &oracles);
    SweepJoins(left, empty, threads, "scan empty build", ctx, &oracles);
  }
}

TEST_F(RowRefsJoinTest, LayoutSweepOverJoinReferencedInputs) {
  // Each input is a vectorized left outer join whose padded side carries
  // the sweep columns: ids without a match pad l.* / r.* (keys
  // included) with kNullRef, and ids with several matches repeat them.
  ASSERT_OK_AND_ASSIGN(Table lbase,
                       Scan("select * from lt l where l.v <> 7", 1));
  ASSERT_OK_AND_ASSIGN(Table rbase,
                       Scan("select * from rt r where r.w >= 3", 1));
  std::map<std::string, Table> oracles;
  for (const int threads : kThreadDegrees) {
    const std::string ctx = "join threads=" + std::to_string(threads);
    HashJoinNode left_join(
        std::make_unique<TableSourceNode>(Ids("dl", 600)),
        std::make_unique<TableSourceNode>(lbase), JoinType::kLeftOuter,
        {{"dl.id", "l.k"}}, nullptr, threads, /*vectorized=*/true);
    ASSERT_OK_AND_ASSIGN(Table left, CollectTable(&left_join, true));
    HashJoinNode right_join(
        std::make_unique<TableSourceNode>(Ids("dr", 450)),
        std::make_unique<TableSourceNode>(rbase), JoinType::kLeftOuter,
        {{"dr.id", "r.k"}}, nullptr, threads, /*vectorized=*/true);
    ASSERT_OK_AND_ASSIGN(Table right, CollectTable(&right_join, true));
    ASSERT_TRUE(right.referenced()) << ctx;
    ASSERT_GT(left.num_rows(), 600) << ctx;  // repeats and pads
    SweepJoins(left, right, threads, "join", ctx, &oracles);
  }
}

// ---------- Sort -> fused handoff over a join-referenced input ----------

// Two nesting levels over a join's output: the level-0 keys come from the
// probe side, the level-1 keys and the members from the build side, which
// pads (NULL member keys) for probe rows without a match.
Table FusedProbe() {
  Rng rng(5);
  Table t(Schema({Field("p.id", TypeId::kInt64), Field("p.a", TypeId::kInt64),
                  Field("p.s", TypeId::kString)}));
  const char* strings[] = {"", "p", "pq", "q"};
  for (int64_t i = 0; i < 1500; ++i) {
    t.AppendUnchecked(
        Row({I(i), rng.UniformInt(0, 7) == 0 ? N() : I(rng.UniformInt(0, 30)),
             Value::String(strings[rng.UniformInt(0, 3)])}));
  }
  return t;
}

Table FusedBuild() {
  Rng rng(9);
  Table t(Schema({Field("m.id", TypeId::kInt64), Field("m.b", TypeId::kFloat64),
                  Field("m.kb", TypeId::kInt64), Field("m.d", TypeId::kInt64),
                  Field("m.kd", TypeId::kInt64)}));
  const double nan = std::numeric_limits<double>::quiet_NaN();
  int64_t key = 1;
  for (int64_t i = 0; i < 1500; ++i) {
    if (i % 5 == 0) continue;  // no member: a pad
    const int64_t copies = rng.UniformInt(1, 4);
    const double bs[] = {nan, -1.5, 2.5};
    const Value b = Value::Float64(bs[rng.UniformInt(0, 2)]);
    const Value kb = I(key++);
    for (int64_t c = 0; c < copies; ++c) {
      t.AppendUnchecked(Row(
          {I(i), b, kb,
           rng.UniformInt(0, 7) == 0 ? N() : I(rng.UniformInt(0, 25)),
           rng.UniformInt(0, 5) == 0 ? N() : I(key++)}));
    }
  }
  return t;
}

FusedLevelSpec FusedLevel(std::vector<std::string> keys, LinkingPredicate pred,
                          SelectionMode mode, std::vector<std::string> pad) {
  FusedLevelSpec spec;
  spec.nesting_attrs = std::move(keys);
  spec.pred = std::move(pred);
  spec.mode = mode;
  spec.pad_attrs = std::move(pad);
  return spec;
}

std::vector<std::pair<std::string, std::vector<FusedLevelSpec>>>
FusedCases() {
  const std::vector<std::string> keys0 = {"p.id", "p.a", "p.s"};
  const std::vector<std::string> keys1 = {"p.id", "p.a", "p.s", "m.b",
                                          "m.kb"};
  std::vector<std::pair<std::string, std::vector<FusedLevelSpec>>> cases;
  cases.push_back(
      {"1: p.a < ALL {m.d}",
       {FusedLevel(keys0,
                   MakeLinkingPredicate(LinkOp::kAll, CmpOp::kLt, "p.a", "",
                                        "m.d", "m.kd"),
                   SelectionMode::kStrict, {})}});
  cases.push_back(
      {"1: NOT EXISTS {m.kd} (pseudo, padded)",
       {FusedLevel(keys0,
                   MakeLinkingPredicate(LinkOp::kNotExists, CmpOp::kEq, "", "",
                                        "m.d", "m.kd"),
                   SelectionMode::kPseudo, {"p.s"})}});
  cases.push_back(
      {"2: EXISTS {m.kb} / m.b >= SOME {m.d}",
       {FusedLevel(keys0,
                   MakeLinkingPredicate(LinkOp::kExists, CmpOp::kEq, "", "",
                                        "m.b", "m.kb"),
                   SelectionMode::kPseudo, {"p.a"}),
        FusedLevel(keys1,
                   MakeLinkingPredicate(LinkOp::kSome, CmpOp::kGe, "m.b", "",
                                        "m.d", "m.kd"),
                   SelectionMode::kPseudo, {})}});
  return cases;
}

Result<Table> RunFused(const Table& input,
                       const std::vector<FusedLevelSpec>& levels, int threads,
                       bool vectorized) {
  std::vector<SortKey> keys;
  for (const std::string& a : levels.back().nesting_attrs) {
    keys.push_back({a, true});
  }
  FusedNestSelectNode fused(
      std::make_unique<SortNode>(std::make_unique<TableSourceNode>(input),
                                 keys, threads, vectorized),
      levels);
  return CollectTable(&fused, vectorized);
}

TEST(RowRefsFusedTest, HandoffOverJoinReferencedInput) {
  for (const int threads : kThreadDegrees) {
    HashJoinNode join(std::make_unique<TableSourceNode>(FusedProbe()),
                      std::make_unique<TableSourceNode>(FusedBuild()),
                      JoinType::kLeftOuter, {{"p.id", "m.id"}}, nullptr,
                      threads, /*vectorized=*/true);
    ASSERT_OK_AND_ASSIGN(Table joined, CollectTable(&join, true));
    ASSERT_TRUE(joined.referenced());
    const Table rows = Materialized(joined);
    for (const auto& [name, levels] : FusedCases()) {
      const std::string ctx = name + " threads=" + std::to_string(threads);
      ASSERT_OK_AND_ASSIGN(Table want, RunFused(rows, levels, 1, false));
      ASSERT_GT(want.num_rows(), 0) << ctx;
      ASSERT_OK_AND_ASSIGN(Table got, RunFused(joined, levels, threads, true));
      ExpectSameRows(want, got, ctx);
    }
  }
}

// ---------- A referenced scan result outlives DDL on its table ----------

TEST(RowRefsLifetimeTest, ScanResultOutlivesDropAndReregister) {
  Catalog catalog;
  ConnectionManager manager(&catalog);
  ASSERT_OK(manager.RegisterTable("lt", SweepLeftBase(3000), "v"));
  ASSERT_OK_AND_ASSIGN(
      QueryBlockPtr block,
      ParseAndBind("select l.k, l.s from lt l where l.v <> 7 and l.k > 20",
                   catalog));
  for (const int threads : kThreadDegrees) {
    const std::string ctx = "threads=" + std::to_string(threads);
    ASSERT_OK_AND_ASSIGN(
        Table result,
        EvalBlockBase(*block, manager.catalog(), block->attributes, threads,
                      nullptr, /*vectorized=*/true, false, false));
    ASSERT_TRUE(result.referenced()) << ctx;
    const Table want = Materialized(result);
    ASSERT_GT(want.num_rows(), 0) << ctx;
    Table copy = result;  // shares the result's source
    // The catalog drops the table's row store and mirror, and registers a
    // different table under the same name.
    ASSERT_OK(manager.Ddl([threads](Catalog* c) -> Status {
      NESTRA_RETURN_NOT_OK(c->DropTable("lt"));
      return c->RegisterTable("lt", SweepLeftBase(2000 + threads), "v");
    }));
    ExpectSameRows(want, result, ctx);
    TableSourceNode source(std::move(copy));
    ASSERT_OK_AND_ASSIGN(Table replayed, CollectTable(&source, false));
    ExpectSameRows(want, replayed, ctx + " copy");
  }
}

}  // namespace
}  // namespace nestra
