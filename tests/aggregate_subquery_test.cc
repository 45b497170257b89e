// Scalar aggregate subqueries — the framework's extension beyond the
// paper's six non-aggregate operators: `A θ (SELECT agg(B) ...)` evaluated
// with the same outer join + nest, folding each group with the aggregate
// before the comparison. SQL semantics: aggregates ignore NULL inputs,
// MIN/MAX/SUM/AVG over an empty group are NULL (comparison UNKNOWN),
// COUNT/COUNT(*) are 0.

#include <gtest/gtest.h>

#include "baseline/native_optimizer.h"
#include "baseline/nested_iteration.h"
#include "nra/executor.h"
#include "nra/physical_plan.h"
#include "plan/binder.h"
#include "plan/tree_expr.h"
#include "sql/parser.h"
#include "test_util.h"
#include "verify/verifier.h"

namespace nestra {
namespace {

using testing_util::ExpectTablesEqual;
using testing_util::I;
using testing_util::MakeTable;
using testing_util::N;
using testing_util::RegisterPaperRelations;

TEST(AggregateParserTest, AggregateSelectForms) {
  ASSERT_OK_AND_ASSIGN(
      AstSelectPtr sel,
      ParseSelect("select a from t where a > (select max(b) from u)"));
  ASSERT_EQ(sel->where->kind, AstCond::Kind::kScalarSubquery);
  EXPECT_EQ(sel->where->op, CmpOp::kGt);
  EXPECT_TRUE(sel->where->subquery->IsSingleAggregate());
  EXPECT_EQ(sel->where->subquery->items[0].agg, LinkAgg::kMax);
  EXPECT_EQ(sel->where->subquery->items[0].column, "b");
}

TEST(AggregateParserTest, CountStar) {
  ASSERT_OK_AND_ASSIGN(
      AstSelectPtr sel,
      ParseSelect("select a from t where 0 = (select count(*) from u)"));
  EXPECT_EQ(sel->where->subquery->items[0].agg, LinkAgg::kCountStar);
}

TEST(AggregateParserTest, Errors) {
  EXPECT_FALSE(ParseSelect("select a from t where a > "
                           "(select sum(*) from u)")
                   .ok());
  // A multi-item aggregate select list parses (it is legal at the top level
  // with GROUP BY) but cannot serve as a scalar subquery — see BinderErrors.
  EXPECT_TRUE(ParseSelect("select a from t where a > "
                          "(select max(b), c from u)")
                  .ok());
}

TEST(AggregateParserTest, RoundTrip) {
  const char* sql =
      "SELECT a FROM t WHERE a >= (SELECT avg(b) FROM u WHERE u.k = t.a)";
  ASSERT_OK_AND_ASSIGN(AstSelectPtr sel, ParseSelect(sql));
  ASSERT_OK_AND_ASSIGN(AstSelectPtr again, ParseSelect(sel->ToString()));
  EXPECT_EQ(again->ToString(), sel->ToString());
}

class AggregateSubqueryTest : public ::testing::Test {
 protected:
  void SetUp() override { RegisterPaperRelations(&catalog_); }

  void CheckAgainstOracle(const std::string& sql) {
    NestedIterationExecutor oracle(catalog_, {.use_indexes = false});
    ASSERT_OK_AND_ASSIGN(Table expected, oracle.ExecuteSql(sql));
    std::vector<std::pair<std::string, NraOptions>> configs;
    configs.emplace_back("original", NraOptions::Original());
    configs.emplace_back("optimized", NraOptions::Optimized());
    {
      NraOptions o = NraOptions::Optimized();
      o.push_down_nest = true;
      o.bottom_up_linear = true;
      configs.emplace_back("rewrites", o);
    }
    for (const auto& [name, opts] : configs) {
      NraExecutor exec(catalog_, opts);
      Result<Table> actual = exec.ExecuteSql(sql);
      ASSERT_TRUE(actual.ok()) << name << ": " << actual.status().ToString();
      EXPECT_TRUE(Table::BagEquals(expected, *actual))
          << sql << " [" << name << "]\nexpected:\n"
          << expected.ToString() << "actual:\n"
          << actual->ToString();
    }
    ASSERT_OK_AND_ASSIGN(Table native, ExecuteNativeSql(sql, catalog_));
    EXPECT_TRUE(Table::BagEquals(expected, native)) << sql;
  }

  Catalog catalog_;
};

TEST_F(AggregateSubqueryTest, BinderMarksAggregateLink) {
  ASSERT_OK_AND_ASSIGN(
      QueryBlockPtr root,
      ParseAndBind("select b from r where c > "
                   "(select max(h) from s where s.g = r.d)",
                   catalog_));
  const QueryBlock& child = *root->children[0];
  EXPECT_TRUE(child.is_aggregate_link);
  EXPECT_EQ(child.agg, LinkAgg::kMax);
  EXPECT_EQ(child.link_cmp, CmpOp::kGt);
  EXPECT_EQ(child.linked_attr, "s.h");
  EXPECT_FALSE(child.LinkIsPositive());
  EXPECT_EQ(LinkingLabel(child), "r.c > max{s.h}");
}

TEST_F(AggregateSubqueryTest, MaxCorrelated) {
  // c > (select max(h) where g = d):
  //  r1: d=1 empty -> max NULL -> UNKNOWN -> out.
  //  r2: d=2 -> max{2,7}=7; 4 > 7 false -> out.
  //  r3: d=3 empty -> out.
  //  r4: d=4 -> h {3,null}: max=3; c=5 > 3 -> TRUE -> keep.
  NraExecutor exec(catalog_);
  ASSERT_OK_AND_ASSIGN(
      Table out,
      exec.ExecuteSql(
          "select d from r where c > (select max(h) from s where s.g = r.d)"));
  ExpectTablesEqual(MakeTable({"r.d"}, {{I(4)}}), out);
}

TEST_F(AggregateSubqueryTest, CountStarTreatsEmptyAsZero) {
  // count(*) of matching s rows: r1/r3 -> 0, r2/r4 -> 2.
  NraExecutor exec(catalog_);
  ASSERT_OK_AND_ASSIGN(
      Table out, exec.ExecuteSql("select d from r where 0 = (select count(*) "
                                 "from s where s.g = r.d)"));
  ExpectTablesEqual(MakeTable({"r.d"}, {{I(1)}, {I(3)}}), out);
}

TEST_F(AggregateSubqueryTest, CountColumnIgnoresNulls) {
  // count(h) for r4's group {3, null} is 1; count(*) is 2.
  NraExecutor exec(catalog_);
  ASSERT_OK_AND_ASSIGN(
      Table by_col, exec.ExecuteSql("select d from r where 1 = (select "
                                    "count(h) from s where s.g = r.d)"));
  ExpectTablesEqual(MakeTable({"r.d"}, {{I(4)}}), by_col);
  ASSERT_OK_AND_ASSIGN(
      Table by_star, exec.ExecuteSql("select d from r where 1 = (select "
                                     "count(*) from s where s.g = r.d)"));
  EXPECT_EQ(by_star.num_rows(), 0);
}

TEST_F(AggregateSubqueryTest, SumAndAvg) {
  // sum(e) where g = d: r2 -> 1+2=3; r4 -> 3+4=7.
  NraExecutor exec(catalog_);
  ASSERT_OK_AND_ASSIGN(
      Table out, exec.ExecuteSql("select d from r where b >= (select sum(e) "
                                 "from s where s.g = r.d)"));
  // r2: b=3 >= 3 TRUE. r4: b=null UNKNOWN. r1/r3: sum NULL -> UNKNOWN.
  ExpectTablesEqual(MakeTable({"r.d"}, {{I(2)}}), out);

  // avg(h) where g = d: r2 -> (2+7)/2 = 4.5.
  ASSERT_OK_AND_ASSIGN(
      Table avg_out,
      exec.ExecuteSql("select d from r where c < (select avg(h) from s "
                      "where s.g = r.d)"));
  // r2: 4 < 4.5 TRUE. r4: avg{3}=3, 5 < 3 false. others UNKNOWN.
  ExpectTablesEqual(MakeTable({"r.d"}, {{I(2)}}), avg_out);
}

TEST_F(AggregateSubqueryTest, AllStrategiesAgree) {
  const char* queries[] = {
      "select d from r where c > (select max(h) from s where s.g = r.d)",
      "select d from r where c <= (select min(h) from s where s.g = r.d)",
      "select d from r where 0 = (select count(*) from s where s.g = r.d)",
      "select d from r where b >= (select sum(e) from s where s.g = r.d)",
      "select d from r where c < (select avg(h) from s where s.g = r.d)",
      // Non-correlated (virtual Cartesian product path).
      "select d from r where b > (select avg(e) from s)",
      // Aggregate link above a nested non-aggregate subquery.
      "select d from r where b <= (select max(e) from s where s.g = r.d and "
      "exists (select * from t where t.l = s.i))",
      // Non-aggregate link above an aggregate subquery.
      "select d from r where b in (select e from s where s.g = r.d and "
      "s.h > (select count(*) from t where t.l = s.i))",
  };
  for (const char* q : queries) {
    SCOPED_TRACE(q);
    CheckAgainstOracle(q);
  }
}

TEST_F(AggregateSubqueryTest, SemiAntiRefusesAggregates) {
  ASSERT_OK_AND_ASSIGN(
      QueryBlockPtr root,
      ParseAndBind("select d from r where c > "
                   "(select max(h) from s where s.g = r.d)",
                   catalog_));
  EXPECT_EQ(ChooseNativePlan(*root, catalog_).kind,
            NativePlanKind::kNestedIteration);
}

TEST_F(AggregateSubqueryTest, BinderErrors) {
  // A multi-item aggregate select list is not a scalar subquery.
  EXPECT_FALSE(ParseAndBind("select d from r where b > "
                            "(select max(e), f from s)",
                            catalog_)
                   .ok());
  // Aggregate subquery under IN.
  EXPECT_FALSE(ParseAndBind("select d from r where b in "
                            "(select max(e) from s)",
                            catalog_)
                   .ok());
  // A bare scalar subquery without an aggregate binds as a θ SOME link with
  // the scalar flag set; the verifier's scalar-card rule then reports that
  // nothing pins the subquery to one row (SOME would silently accept any
  // matching member where SQL requires a runtime cardinality error).
  {
    ASSERT_OK_AND_ASSIGN(QueryBlockPtr scalar,
                         ParseAndBind("select d from r where b > "
                                      "(select e from s)",
                                      catalog_));
    ASSERT_EQ(scalar->children.size(), 1u);
    EXPECT_TRUE(scalar->children[0]->is_scalar_link);
    EXPECT_EQ(scalar->children[0]->link_op, LinkOp::kSome);
    const PlanVerifier verifier(catalog_);
    const VerifyReport report = verifier.Verify(
        *scalar,
        BuildPhysicalPlan(*scalar, catalog_, NraOptions::Optimized()));
    EXPECT_TRUE(report.HasRule(verify_rules::kScalarCard)) << report.ToString();
    EXPECT_FALSE(report.ok());
  }
  // Unknown aggregate argument.
  EXPECT_FALSE(ParseAndBind("select d from r where b > "
                            "(select max(zz) from s)",
                            catalog_)
                   .ok());
}

}  // namespace
}  // namespace nestra
