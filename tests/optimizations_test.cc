// Equivalence of every optimization path (§4.2) with the original approach
// and with the nested-iteration oracle, plus precondition checks.

#include <gtest/gtest.h>

#include "baseline/nested_iteration.h"
#include "nra/executor.h"
#include "nra/physical_plan.h"
#include "nra/planner.h"
#include "nra/rewrites.h"
#include "plan/binder.h"
#include "test_util.h"

namespace nestra {
namespace {

using testing_util::I;
using testing_util::MakeTable;
using testing_util::N;
using testing_util::RegisterPaperRelations;

class OptimizationsTest : public ::testing::Test {
 protected:
  void SetUp() override { RegisterPaperRelations(&catalog_); }
  Catalog catalog_;
};

const char* kQueries[] = {
    // Linear correlated, one level, positive.
    "select b from r where exists (select * from s where s.g = r.d)",
    "select b from r where d in (select g from s where f = 5)",
    "select d from r where b > some (select e from s where s.g = r.d)",
    // Linear correlated, one level, negative.
    "select b from r where not exists (select * from s where s.g = r.d)",
    "select d from r where c >= all (select h from s where s.g = r.d)",
    "select b from r where b not in (select e from s where s.g = r.d)",
    // Two-level linear correlated (child correlated to parent only).
    "select b from r where b not in ("
    "  select e from s where s.g = r.d and s.h > all ("
    "    select j from t where t.l = s.i))",
    // Two-level with non-adjacent correlation (Query Q).
    testing_util::kQueryQ,
    // Mixed two-level.
    "select b from r where d in ("
    "  select g from s where exists ("
    "    select * from t where t.l = s.i))",
    // Tree query.
    "select b from r where "
    "  exists (select * from s where s.g = r.d) and "
    "  b not in (select j from t where t.k = r.c)",
    // Non-correlated subquery (virtual Cartesian product).
    "select d from r where b > some (select e from s)",
};

TEST_F(OptimizationsTest, EveryConfigurationMatchesTheOracle) {
  NestedIterationExecutor oracle(catalog_, {.use_indexes = false});
  std::vector<std::pair<std::string, NraOptions>> configs;
  configs.emplace_back("original", NraOptions::Original());
  configs.emplace_back("optimized", NraOptions::Optimized());
  {
    NraOptions o = NraOptions::Original();
    o.nest_method = NestMethod::kHash;
    configs.emplace_back("original+hash-nest", o);
  }
  {
    NraOptions o = NraOptions::Optimized();
    o.push_down_nest = true;
    configs.emplace_back("push-down-nest", o);
  }
  {
    NraOptions o = NraOptions::Optimized();
    o.rewrite_positive = true;
    configs.emplace_back("positive-rewrite", o);
  }
  {
    NraOptions o = NraOptions::Optimized();
    o.bottom_up_linear = true;
    configs.emplace_back("bottom-up-linear", o);
  }
  {
    NraOptions o = NraOptions::Original();
    o.push_down_nest = true;
    o.rewrite_positive = true;
    o.bottom_up_linear = true;
    configs.emplace_back("original+all-rewrites", o);
  }
  {
    NraOptions o = NraOptions::Optimized();
    o.magic_restriction = true;
    configs.emplace_back("magic-restriction", o);
  }

  for (const char* q : kQueries) {
    ASSERT_OK_AND_ASSIGN(Table expected, oracle.ExecuteSql(q));
    for (const auto& [name, opts] : configs) {
      NraExecutor exec(catalog_, opts);
      Result<Table> actual = exec.ExecuteSql(q);
      ASSERT_TRUE(actual.ok())
          << name << " failed on: " << q << "\n"
          << actual.status().ToString();
      EXPECT_TRUE(Table::BagEquals(expected, *actual))
          << "config " << name << " diverged on: " << q << "\nexpected:\n"
          << expected.ToString() << "actual:\n"
          << actual->ToString();
    }
  }
}

TEST_F(OptimizationsTest, LinearCorrelationDetection) {
  ASSERT_OK_AND_ASSIGN(
      QueryBlockPtr linear,
      ParseAndBind("select b from r where b not in ("
                   "  select e from s where s.g = r.d and s.h > all ("
                   "    select j from t where t.l = s.i))",
                   catalog_));
  EXPECT_TRUE(linear->IsLinearCorrelated());

  ASSERT_OK_AND_ASSIGN(QueryBlockPtr query_q,
                       ParseAndBind(testing_util::kQueryQ, catalog_));
  EXPECT_TRUE(query_q->IsLinear());
  EXPECT_FALSE(query_q->IsLinearCorrelated());  // t is correlated to r too
}

TEST_F(OptimizationsTest, StrictSafeRule) {
  ASSERT_OK_AND_ASSIGN(QueryBlockPtr query_q,
                       ParseAndBind(testing_util::kQueryQ, catalog_));
  const QueryBlock* s = query_q->children[0].get();
  const PhysicalPlan plan_q =
      BuildPhysicalPlan(*query_q, catalog_, NraOptions::Original());
  // At the root: always strict-safe.
  EXPECT_TRUE(plan_q.StepFor(*s)->strict_safe);
  // Below the NOT IN link: not safe (failing S tuples must be padded).
  EXPECT_FALSE(plan_q.StepFor(*s->children[0])->strict_safe);

  ASSERT_OK_AND_ASSIGN(
      QueryBlockPtr positive,
      ParseAndBind("select b from r where d in ("
                   "  select g from s where exists ("
                   "    select * from t where t.l = s.i))",
                   catalog_));
  const QueryBlock* ps = positive->children[0].get();
  const PhysicalPlan plan_p =
      BuildPhysicalPlan(*positive, catalog_, NraOptions::Original());
  EXPECT_TRUE(plan_p.StepFor(*ps->children[0])->strict_safe);  // IN above
}

TEST_F(OptimizationsTest, AllEquiCorrelationDetection) {
  ASSERT_OK_AND_ASSIGN(
      QueryBlockPtr root,
      ParseAndBind(
          "select b from r where exists (select * from s where s.g = r.d)",
          catalog_));
  const QueryBlock& child = *root->children[0];
  ASSERT_OK_AND_ASSIGN(Table outer,
                       EvalBlockBase(*root, catalog_, root->attributes));
  ASSERT_OK_AND_ASSIGN(Table inner,
                       EvalBlockBase(child, catalog_, child.attributes));
  std::vector<std::string> ok, ik;
  EXPECT_TRUE(AllEquiCorrelation(*root->children[0], outer.schema(),
                                 inner.schema(), &ok, &ik));
  EXPECT_EQ(ok, (std::vector<std::string>{"r.d"}));
  EXPECT_EQ(ik, (std::vector<std::string>{"s.g"}));

  // Non-equi correlation is rejected.
  ASSERT_OK_AND_ASSIGN(
      QueryBlockPtr theta,
      ParseAndBind(
          "select b from r where exists (select * from s where s.e < r.b)",
          catalog_));
  const QueryBlock& theta_child = *theta->children[0];
  ASSERT_OK_AND_ASSIGN(Table outer2,
                       EvalBlockBase(*theta, catalog_, theta->attributes));
  ASSERT_OK_AND_ASSIGN(
      Table inner2,
      EvalBlockBase(theta_child, catalog_, theta_child.attributes));
  EXPECT_FALSE(AllEquiCorrelation(*theta->children[0], outer2.schema(),
                                  inner2.schema(), &ok, &ik));
}

TEST_F(OptimizationsTest, HashLinkSelectMatchesJoinNestSelect) {
  // Direct unit check of §4.2.4 on the paper data: exists with equi
  // correlation.
  ASSERT_OK_AND_ASSIGN(
      QueryBlockPtr root,
      ParseAndBind(
          "select b from r where exists (select * from s where s.g = r.d)",
          catalog_));
  const QueryBlock& child = *root->children[0];
  ASSERT_OK_AND_ASSIGN(Table outer,
                       EvalBlockBase(*root, catalog_, root->attributes));
  ASSERT_OK_AND_ASSIGN(Table inner,
                       EvalBlockBase(child, catalog_, child.attributes));
  ASSERT_OK_AND_ASSIGN(
      Table reduced,
      HashLinkSelect(outer, inner, {"r.d"}, {"s.g"}, child,
                     SelectionMode::kStrict, {}));
  // Should match r2 and r4 (the rows whose d has matching s.g).
  ASSERT_OK_AND_ASSIGN(Table projected, reduced.Project({"r.b"}));
  EXPECT_TRUE(Table::BagEquals(MakeTable({"r.b"}, {{I(3)}, {N()}}),
                               projected));
}

TEST_F(OptimizationsTest, PositiveLinkJoinConditionForms) {
  ASSERT_OK_AND_ASSIGN(
      QueryBlockPtr in_q,
      ParseAndBind("select b from r where d in (select g from s)", catalog_));
  ASSERT_OK_AND_ASSIGN(ExprPtr cond,
                       PositiveLinkJoinCondition(*in_q->children[0]));
  ASSERT_NE(cond, nullptr);
  EXPECT_EQ(cond->ToString(), "r.d = s.g");

  ASSERT_OK_AND_ASSIGN(
      QueryBlockPtr exists_q,
      ParseAndBind("select b from r where exists (select * from s)",
                   catalog_));
  ASSERT_OK_AND_ASSIGN(ExprPtr none,
                       PositiveLinkJoinCondition(*exists_q->children[0]));
  EXPECT_EQ(none, nullptr);

  ASSERT_OK_AND_ASSIGN(
      QueryBlockPtr all_q,
      ParseAndBind("select b from r where c > all (select h from s)",
                   catalog_));
  EXPECT_FALSE(PositiveLinkJoinCondition(*all_q->children[0]).ok());
}

}  // namespace
}  // namespace nestra
