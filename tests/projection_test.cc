// The carried set (QueryBlock::carried): the columns each block keeps past
// its base scan, decided once at bind time. The first half pins what the
// binder carries for each query shape; the second half runs the NRA
// executor — which scans, joins, nests, pads and sorts only those columns —
// under every option set, thread count and engine against the full-width
// nested-iteration oracle.

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "baseline/nested_iteration.h"
#include "common/date.h"
#include "nra/executor.h"
#include "nra/explain.h"
#include "plan/binder.h"
#include "tpch/queries.h"
#include "tpch/tpch_gen.h"
#include "test_util.h"

namespace nestra {
namespace {

using testing_util::I;
using testing_util::kQueryQ;
using testing_util::MakeTable;
using testing_util::N;
using testing_util::RegisterPaperRelations;
using Columns = std::vector<std::string>;

class ProjectionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    RegisterPaperRelations(&catalog_);
    // A keyless table with a duplicate row, for multi-table blocks.
    ASSERT_OK(catalog_.RegisterTable(
        "w",
        MakeTable({"wx", "wy", "wz"}, {{I(1), I(7), I(0)},
                                       {I(1), I(7), I(0)},
                                       {I(2), N(), I(1)},
                                       {I(4), I(8), N()}}),
        /*primary_key=*/""));
  }

  QueryBlockPtr Bind(const std::string& sql) {
    Result<QueryBlockPtr> bound = ParseAndBind(sql, catalog_);
    EXPECT_TRUE(bound.ok()) << sql << "\n" << bound.status().ToString();
    return bound.ok() ? std::move(bound).ValueOrDie() : nullptr;
  }

  Catalog catalog_;
};

TEST_F(ProjectionTest, SingleTableBlockCarriesOutputAndKey) {
  // r.a is read only by the local predicate, r.c by nothing.
  const QueryBlockPtr root = Bind("select r.b from r where r.a > 1");
  ASSERT_NE(root, nullptr);
  EXPECT_EQ(root->attributes, (Columns{"r.a", "r.b", "r.c", "r.d"}));
  EXPECT_EQ(root->carried, (Columns{"r.b", "r.d"}));
}

TEST_F(ProjectionTest, MultiTableBlockCarriesEveryTableKey) {
  // s.g and s.f feed only the block's own join and filter; the join row
  // stays identified by (r.d, s.i).
  const QueryBlockPtr keyed =
      Bind("select r.a from r, s where r.d = s.g and s.f = 5");
  ASSERT_NE(keyed, nullptr);
  EXPECT_EQ(keyed->carried, (Columns{"r.a", "r.d", "s.i"}));

  // A keyless table keeps all its columns: duplicate rows of w must stay
  // distinguishable only as far as the full-width plan could.
  const QueryBlockPtr keyless = Bind("select r.a from r, w where r.d = w.wx");
  ASSERT_NE(keyless, nullptr);
  EXPECT_EQ(keyless->carried,
            (Columns{"r.a", "r.d", "w.wx", "w.wy", "w.wz"}));
}

TEST_F(ProjectionTest, ExistsSelectStarCarriesCorrelationAndKey) {
  const QueryBlockPtr root =
      Bind("select r.a from r where exists (select * from s where s.g = r.d)");
  ASSERT_NE(root, nullptr);
  EXPECT_EQ(root->carried, (Columns{"r.a", "r.d"}));
  const QueryBlock& s = *root->children[0];
  EXPECT_EQ(s.select_list.size(), 5u);  // the * is not read by the link
  EXPECT_EQ(s.carried, (Columns{"s.g", "s.i"}));
}

TEST_F(ProjectionTest, AggregateAndScalarLinksCarryTheirOperands) {
  const QueryBlockPtr agg = Bind(
      "select r.a from r where r.b < (select max(s.h) from s where s.g = r.d)");
  ASSERT_NE(agg, nullptr);
  EXPECT_EQ(agg->carried, (Columns{"r.a", "r.b", "r.d"}));
  EXPECT_EQ(agg->children[0]->carried, (Columns{"s.g", "s.h", "s.i"}));

  const QueryBlockPtr count = Bind(
      "select r.a from r where 2 = (select count(*) from s where s.g = r.d)");
  ASSERT_NE(count, nullptr);
  EXPECT_EQ(count->carried, (Columns{"r.a", "r.d"}));
  EXPECT_EQ(count->children[0]->carried, (Columns{"s.g", "s.i"}));

  const QueryBlockPtr scalar = Bind(
      "select r.a from r where r.b = (select s.e from s where s.i = r.d)");
  ASSERT_NE(scalar, nullptr);
  EXPECT_EQ(scalar->carried, (Columns{"r.a", "r.b", "r.d"}));
  EXPECT_EQ(scalar->children[0]->carried, (Columns{"s.e", "s.i"}));
}

TEST_F(ProjectionTest, GroupedRootCarriesGroupingAggregateAndHavingColumns) {
  // r.a is a local predicate only; r.b feeds HAVING's aggregate, r.c the
  // grouping and ORDER BY.
  const QueryBlockPtr root = Bind(
      "select r.c, count(*) from r where r.a > 0 group by r.c "
      "having sum(r.b) > 1 order by r.c");
  ASSERT_NE(root, nullptr);
  EXPECT_EQ(root->carried, (Columns{"r.b", "r.c", "r.d"}));
}

TEST_F(ProjectionTest, GrandparentCorrelationIsCarriedByTheGrandparent) {
  // The Q3 shape: block 3 correlates to block 1 (t.k = r.c). Nothing in
  // blocks 1 and 2 reads r.c, yet the root must carry it down to the join
  // with t; s.f (block 2's local predicate) is dropped.
  const QueryBlockPtr root = Bind(
      "select r.a from r where r.b not in ("
      "  select s.e from s where s.f = 5 and r.d = s.g and s.h > all ("
      "    select t.j from t where t.k = r.c and t.l <> s.i))");
  ASSERT_NE(root, nullptr);
  EXPECT_EQ(root->carried, (Columns{"r.a", "r.b", "r.c", "r.d"}));
  const QueryBlock& s = *root->children[0];
  EXPECT_EQ(s.carried, (Columns{"s.e", "s.g", "s.h", "s.i"}));
  EXPECT_EQ(s.children[0]->carried, (Columns{"t.j", "t.k", "t.l"}));
}

TEST_F(ProjectionTest, ExplainPrintsEachBlocksCarriedList) {
  Result<std::string> text =
      ExplainSql(kQueryQ, catalog_, NraOptions::Optimized());
  ASSERT_TRUE(text.ok()) << text.status().ToString();
  EXPECT_NE(text->find("carry 3/4: r.b, r.c, r.d\n"), std::string::npos)
      << *text;
  EXPECT_NE(text->find("carry 4/5: s.e, s.g, s.h, s.i\n"), std::string::npos)
      << *text;
  EXPECT_NE(text->find("carry 3/3: t.j, t.k, t.l\n"), std::string::npos)
      << *text;
}

// ---------- Narrow execution against the full-width oracle ----------

// Every plan-shaping option on its own, plus the paper's two measured
// configurations.
std::vector<std::pair<std::string, NraOptions>> OptionSets() {
  std::vector<std::pair<std::string, NraOptions>> sets;
  sets.emplace_back("optimized", NraOptions::Optimized());
  sets.emplace_back("original", NraOptions::Original());
  const auto with = [&](const std::string& name, auto set) {
    NraOptions o = NraOptions::Optimized();
    set(&o);
    sets.emplace_back(name, o);
  };
  with("push-down", [](NraOptions* o) { o->push_down_nest = true; });
  with("rewrite-positive", [](NraOptions* o) { o->rewrite_positive = true; });
  with("bottom-up", [](NraOptions* o) { o->bottom_up_linear = true; });
  with("magic+hash-nest", [](NraOptions* o) {
    o->magic_restriction = true;
    o->nest_method = NestMethod::kHash;
  });
  with("unfused", [](NraOptions* o) { o->fused = false; });
  with("3vl", [](NraOptions* o) { o->two_valued = false; });
  with("no-cost", [](NraOptions* o) { o->cost_based = false; });
  return sets;
}

// Runs `sql` under every option set × threads {1,2,8} × {row, vectorized}:
// every answer bag-equals the oracle's, and within an option set every
// thread count and engine returns the same rows in the same order.
void CheckAgainstOracle(const Catalog& catalog, const std::string& sql) {
  SCOPED_TRACE(sql);
  NestedIterationExecutor oracle(catalog, {.use_indexes = false});
  Result<Table> expected = oracle.ExecuteSql(sql);
  ASSERT_TRUE(expected.ok()) << expected.status().ToString();
  for (const auto& [name, base] : OptionSets()) {
    Result<Table> first = Status::Internal("unset");
    for (const int threads : {1, 2, 8}) {
      for (const bool vectorized : {false, true}) {
        NraOptions opts = base;
        opts.num_threads = threads;
        opts.vectorized = vectorized;
        const std::string context = name + "/threads=" +
                                    std::to_string(threads) +
                                    (vectorized ? "/vectorized" : "/row");
        NraExecutor exec(catalog, opts);
        Result<Table> actual = exec.ExecuteSql(sql);
        ASSERT_TRUE(actual.ok()) << context << ": "
                                 << actual.status().ToString();
        EXPECT_TRUE(Table::BagEquals(*expected, *actual))
            << context << "\nexpected:\n"
            << expected->ToString() << "actual:\n"
            << actual->ToString();
        if (!first.ok()) {
          first = std::move(actual);
          continue;
        }
        ASSERT_EQ(first->num_rows(), actual->num_rows()) << context;
        for (int64_t i = 0; i < first->num_rows(); ++i) {
          const size_t row = static_cast<size_t>(i);
          ASSERT_TRUE(first->rows()[row] == actual->rows()[row])
              << context << ": rows diverge at " << i;
        }
      }
    }
  }
}

TEST_F(ProjectionTest, PaperRelationsMatchTheOracleEverywhere) {
  for (const std::string& sql : {
           std::string(kQueryQ),
           std::string("select r.b from r where r.a > 1"),
           std::string("select r.a from r, s where r.d = s.g and s.f = 5"),
           std::string("select r.a, w.wy from r, w where r.d = w.wx"),
           // Each r row joins two s rows that differ only in s's key: the
           // nest must keep both, or the bag loses a duplicate.
           std::string("select r.a from r, s where r.d = s.g and exists "
                       "(select * from t where t.k = r.c)"),
           std::string("select r.a from r, s where r.d = s.g and not exists "
                       "(select * from t where t.k = r.c and t.j > 4)"),
           std::string("select r.a from r where r.b in ("
                       "select w.wy from s, w where w.wx = s.g and "
                       "s.i = r.d)"),
           std::string("select r.a from r where exists "
                       "(select * from s where s.g = r.d)"),
           std::string("select r.a from r where not exists "
                       "(select * from s, w where s.g = w.wx and s.h = r.b)"),
           std::string("select r.a from r where r.b < "
                       "(select max(s.h) from s where s.g = r.d)"),
           std::string("select r.a from r where 2 = "
                       "(select count(*) from s where s.g = r.d)"),
           std::string("select r.a from r where r.b = "
                       "(select s.e from s where s.i = r.d)"),
           std::string("select r.c, count(*) from r where r.a > 0 "
                       "group by r.c having sum(r.b) > 1 order by r.c"),
           std::string("select r.a from r where r.b not in ("
                       "select s.e from s where s.f = 5 and r.d = s.g and "
                       "s.h > all (select t.j from t where t.k = r.c and "
                       "t.l <> s.i))"),
           std::string("select r.d from r where r.a not in "
                       "(select s.e from s) and exists "
                       "(select * from t where t.k = r.c)"),
       }) {
    CheckAgainstOracle(catalog_, sql);
  }
}

TEST(ProjectionTpchTest, PaperQueriesMatchTheOracleEverywhere) {
  // Several granules per table (1,024 rows each), NULLs in the linked
  // columns, nothing declared NOT NULL: the gathered scan, the 3VL paths
  // and the partitioned joins all see narrow rows.
  Catalog catalog;
  TpchConfig config;
  config.scale = 0.2;
  config.null_l_extendedprice = 0.05;
  config.null_ps_supplycost = 0.05;
  ASSERT_OK(PopulateTpch(&catalog, config));
  const Table* orders = *catalog.GetTable("orders");
  const Value lo = *ColumnQuantile(*orders, "o_orderdate", 0.4);
  const Value hi = *ColumnQuantile(*orders, "o_orderdate", 0.5);
  CheckAgainstOracle(catalog, MakeQuery1(FormatDate(lo.int64()),
                                         FormatDate(hi.int64())));
  CheckAgainstOracle(catalog, MakeQuery2(10, 12, 5000, 25, OuterLink::kAll,
                                         InnerLink::kNotExists));
  CheckAgainstOracle(catalog,
                     MakeQuery3(10, 12, 5000, 25, OuterLink::kAny,
                                InnerLink::kExists, Query3Variant::kVariantA));
}

}  // namespace
}  // namespace nestra
