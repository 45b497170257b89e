// Static plan verifier: clean bills of health for the paper / TPC-H query
// corpora under every option set, and targeted detection of hand-corrupted
// plans (one per documented rule id).

#include "verify/verifier.h"

#include <algorithm>
#include <functional>

#include <gtest/gtest.h>

#include "nra/executor.h"
#include "nra/explain.h"
#include "nra/physical_plan.h"
#include "plan/binder.h"
#include "tpch/queries.h"
#include "tpch/tpch_gen.h"
#include "test_util.h"

namespace nestra {
namespace {

using testing_util::RegisterPaperRelations;
using testing_util::kQueryQ;

// Every measured configuration plus each §4.2.x flag in isolation.
std::vector<NraOptions> AllOptionSets() {
  std::vector<NraOptions> sets{NraOptions::Original(), NraOptions::Optimized()};
  NraOptions o = NraOptions::Optimized();
  o.push_down_nest = true;
  sets.push_back(o);
  o = NraOptions::Optimized();
  o.rewrite_positive = true;
  sets.push_back(o);
  o = NraOptions::Optimized();
  o.bottom_up_linear = true;
  sets.push_back(o);
  o = NraOptions::Original();
  o.nest_method = NestMethod::kHash;
  o.magic_restriction = true;
  sets.push_back(o);
  return sets;
}

class VerifyTest : public ::testing::Test {
 protected:
  void SetUp() override { RegisterPaperRelations(&catalog_); }

  QueryBlockPtr Bind(const std::string& sql) {
    Result<QueryBlockPtr> bound = ParseAndBind(sql, catalog_);
    EXPECT_TRUE(bound.ok()) << sql << "\n" << bound.status().ToString();
    return bound.ok() ? std::move(bound).ValueOrDie() : nullptr;
  }

  // The plan the executor builds for `root` under `opts`.
  PhysicalPlan Plan(const QueryBlock& root,
                    const NraOptions& opts = NraOptions::Optimized()) const {
    return BuildPhysicalPlan(root, catalog_, opts);
  }

  Catalog catalog_;
};

TEST(VerifyDiagnosticTest, Formatting) {
  const VerifyDiagnostic d{VerifySeverity::kError, 2, verify_rules::kNestSets,
                           "N1 and N2 overlap on 's.e'"};
  EXPECT_EQ(d.ToString(), "error [nest-sets] block 2: N1 and N2 overlap on 's.e'");

  VerifyReport report;
  EXPECT_TRUE(report.ok());
  EXPECT_TRUE(report.clean());
  EXPECT_OK(report.ToStatus());

  report.Add({VerifySeverity::kWarning, 3,
              verify_rules::kCartesianProduct, "pricey"});
  EXPECT_TRUE(report.ok());  // warnings do not fail verification
  EXPECT_FALSE(report.clean());
  EXPECT_EQ(report.num_errors(), 0);
  EXPECT_EQ(report.num_warnings(), 1);
  EXPECT_OK(report.ToStatus());

  report.Add(d);
  EXPECT_FALSE(report.ok());
  EXPECT_EQ(report.num_errors(), 1);
  EXPECT_TRUE(report.HasRule(verify_rules::kNestSets));
  EXPECT_FALSE(report.HasRule(verify_rules::kKeySurvival));
  EXPECT_EQ(report.CountRule(verify_rules::kCartesianProduct), 1);
  EXPECT_EQ(report.Summary(), "verify: 10 rules, 1 error, 1 warning");
  const Status st = report.ToStatus();
  EXPECT_FALSE(st.ok());
  // Only error-severity diagnostics surface in the status message.
  EXPECT_NE(st.ToString().find("nest-sets"), std::string::npos);
  EXPECT_EQ(st.ToString().find("cartesian-product"), std::string::npos);
}

TEST_F(VerifyTest, PaperCorpusCleanUnderEveryOptionSet) {
  const std::vector<std::string> corpus = {
      kQueryQ,
      "select r.a from r where r.b in (select s.e from s where s.g = r.d)",
      "select r.a from r where r.b not in (select s.e from s where s.g = r.d)",
      "select b from r where exists (select * from s where s.g = r.d)",
      "select b from r where not exists (select * from s where s.g = r.d)",
      "select r.a from r where r.c > (select count(*) from s where s.g = r.d)",
      "select r.a from r where r.b in (select s.e from s)",
      "select r.a from r where r.b > all (select s.g from s where s.g = r.d)",
      "select r.c, count(*) from r where r.b in "
      "(select s.e from s where s.g = r.d) group by r.c order by r.c",
  };
  for (const NraOptions& opts : AllOptionSets()) {
    const PlanVerifier verifier(catalog_);
    for (const std::string& sql : corpus) {
      const QueryBlockPtr root = Bind(sql);
      ASSERT_NE(root, nullptr);
      const VerifyReport report = verifier.Verify(*root, Plan(*root, opts));
      EXPECT_TRUE(report.clean())
          << sql << "\n(" << opts.ToString() << ")\n" << report.ToString();
    }
  }
}

TEST_F(VerifyTest, CorruptedOverlappingNestSets) {
  const QueryBlockPtr root =
      Bind("select r.a from r where r.b in (select s.e from s where s.g = r.d)");
  ASSERT_NE(root, nullptr);
  ASSERT_EQ(root->children.size(), 1u);

  // Point the subquery's linked attribute at an *outer* column: N2 now
  // intersects the retained prefix N1, violating the nest's disjointness.
  root->children[0]->linked_attr = "r.b";

  const PlanVerifier verifier(catalog_);
  const VerifyReport report = verifier.Verify(*root, Plan(*root));
  EXPECT_FALSE(report.ok()) << report.ToString();
  EXPECT_TRUE(report.HasRule(verify_rules::kNestSets)) << report.ToString();
}

TEST_F(VerifyTest, CorruptedStrictUnderNegativeLink) {
  // A strict-safe chain: both links positive, so the inner selection is
  // planned strict. Flipping the middle link to NOT IN *after* outlining
  // leaves a strict step under a pending negative operator.
  const QueryBlockPtr root = Bind(
      "select r.a from r where r.b in (select s.e from s where s.g = r.d and "
      "s.h in (select t.j from t where t.k = s.i))");
  ASSERT_NE(root, nullptr);

  const PlanVerifier verifier(catalog_);
  const std::vector<PlanStep> steps = Plan(*root, NraOptions::Original()).steps;
  ASSERT_EQ(steps.size(), 2u);
  {
    VerifyReport before;
    verifier.CheckOutline(steps, &before);
    EXPECT_TRUE(before.clean()) << before.ToString();
  }

  root->children[0]->link_op = LinkOp::kNotIn;

  VerifyReport report;
  verifier.CheckOutline(steps, &report);
  EXPECT_FALSE(report.ok()) << report.ToString();
  EXPECT_TRUE(report.HasRule(verify_rules::kLinkMode)) << report.ToString();
}

TEST_F(VerifyTest, CorruptedDroppedKeyAttribute) {
  const QueryBlockPtr root =
      Bind("select r.a from r where r.b in (select s.e from s where s.g = r.d)");
  ASSERT_NE(root, nullptr);
  ASSERT_EQ(root->children.size(), 1u);

  // Without the subquery's key, a NULL-padded tuple is indistinguishable
  // from a genuinely matching one after the outer join.
  root->children[0]->key_attr.clear();

  const PlanVerifier verifier(catalog_);
  const VerifyReport report = verifier.Verify(*root, Plan(*root));
  EXPECT_FALSE(report.ok()) << report.ToString();
  EXPECT_TRUE(report.HasRule(verify_rules::kKeySurvival)) << report.ToString();
}

TEST_F(VerifyTest, CorruptedTableNotInCatalog) {
  const QueryBlockPtr root =
      Bind("select r.a from r where r.b in (select s.e from s where s.g = r.d)");
  ASSERT_NE(root, nullptr);
  ASSERT_EQ(root->children.size(), 1u);

  // Retarget the subquery at a table the catalog has never heard of.
  root->children[0]->tables[0].table = "phantom";

  const PlanVerifier verifier(catalog_);
  const VerifyReport report = verifier.Verify(*root, Plan(*root));
  EXPECT_FALSE(report.ok()) << report.ToString();
  EXPECT_TRUE(report.HasRule(verify_rules::kSchemaResolve)) << report.ToString();
}

TEST_F(VerifyTest, CorruptedLinkingAttributeUnresolvable) {
  const QueryBlockPtr root =
      Bind("select r.a from r where r.b in (select s.e from s where s.g = r.d)");
  ASSERT_NE(root, nullptr);
  ASSERT_EQ(root->children.size(), 1u);

  // The link's outer operand must resolve in some ancestor block.
  root->children[0]->linking_attr = "r.zzz";

  const PlanVerifier verifier(catalog_);
  const VerifyReport report = verifier.Verify(*root, Plan(*root));
  EXPECT_FALSE(report.ok()) << report.ToString();
  EXPECT_TRUE(report.HasRule(verify_rules::kLinkSchema)) << report.ToString();
}

TEST_F(VerifyTest, CorruptedPositiveRewriteMissingOperand) {
  const QueryBlockPtr root =
      Bind("select r.a from r where r.b in (select s.e from s where s.g = r.d)");
  ASSERT_NE(root, nullptr);
  ASSERT_EQ(root->children.size(), 1u);

  // With the §4.2.5 positive-semijoin rewrite enabled the executor builds
  // the extra join condition A θ B from the link operands; blank the inner
  // one and the precondition check must flag the plan.
  NraOptions opts = NraOptions::Optimized();
  opts.rewrite_positive = true;
  root->children[0]->linked_attr.clear();

  const PlanVerifier verifier(catalog_);
  const VerifyReport report = verifier.Verify(*root, Plan(*root, opts));
  EXPECT_FALSE(report.ok()) << report.ToString();
  EXPECT_TRUE(report.HasRule(verify_rules::kRewritePrecond))
      << report.ToString();
}

TEST_F(VerifyTest, NullLinkingFiresWhenComparisonProvablyUnknown) {
  // `s.h IS NULL` proves the linked attribute always-NULL among qualifying
  // rows, so the IN member comparison can only ever evaluate to UNKNOWN: the
  // link is constant-valued regardless of the data.
  const QueryBlockPtr root = Bind(
      "select r.a from r where r.b in (select s.h from s where s.h is null)");
  ASSERT_NE(root, nullptr);
  const PlanVerifier verifier(catalog_);
  const VerifyReport report = verifier.Verify(*root, Plan(*root));
  EXPECT_TRUE(report.HasRule(verify_rules::kNullLinking)) << report.ToString();
  EXPECT_TRUE(report.ok());  // warning severity: the plan still runs
}

TEST_F(VerifyTest, NullLinkingSilentWhenComparisonCanDecide) {
  // Same shape with IS NOT NULL: the member comparison can decide, so the
  // warning must not fire (the linking side r.b may still be NULL — that
  // makes the link three-valued, not constant).
  const QueryBlockPtr root = Bind(
      "select r.a from r where r.b in "
      "(select s.h from s where s.h is not null)");
  ASSERT_NE(root, nullptr);
  const VerifyReport report = PlanVerifier(catalog_).Verify(*root, Plan(*root));
  EXPECT_FALSE(report.HasRule(verify_rules::kNullLinking)) << report.ToString();
  EXPECT_TRUE(report.clean()) << report.ToString();
}

TEST_F(VerifyTest, ScalarCardFiresWhenNoKeyPinned) {
  // A bare scalar subquery binds as θ SOME; nothing pins a key of s, so the
  // at-most-one-row requirement is unprovable and SOME would silently accept
  // where SQL demands a runtime cardinality error.
  const QueryBlockPtr root =
      Bind("select d from r where b = (select e from s)");
  ASSERT_NE(root, nullptr);
  ASSERT_EQ(root->children.size(), 1u);
  EXPECT_TRUE(root->children[0]->is_scalar_link);
  const VerifyReport report = PlanVerifier(catalog_).Verify(*root, Plan(*root));
  EXPECT_TRUE(report.HasRule(verify_rules::kScalarCard)) << report.ToString();
  EXPECT_FALSE(report.ok());  // error severity
}

TEST_F(VerifyTest, ScalarCardSilentWhenKeyPinned) {
  // s.i is the primary key of s: a literal or correlated equality on it
  // bounds the qualifying set to at most one member per outer binding.
  for (const char* sql :
       {"select d from r where b = (select e from s where s.i = 2)",
        "select d from r where b = (select e from s where s.i = r.d)"}) {
    const QueryBlockPtr root = Bind(sql);
    ASSERT_NE(root, nullptr);
    ASSERT_EQ(root->children.size(), 1u);
    EXPECT_TRUE(root->children[0]->is_scalar_link) << sql;
    const VerifyReport report = PlanVerifier(catalog_).Verify(*root, Plan(*root));
    EXPECT_FALSE(report.HasRule(verify_rules::kScalarCard))
        << sql << "\n" << report.ToString();
    EXPECT_TRUE(report.ok()) << sql << "\n" << report.ToString();
  }
}

TEST_F(VerifyTest, PseudoPadSetIsTheEnclosingCarriedSet) {
  // Query Q's inner selection (block 3's link) runs in pseudo mode, padding
  // the middle block. s.f is read only by block 2's local predicate, which
  // runs before the scan projects, so block 2 never carries it and the pad
  // set A cannot contain it: A is exactly block 2's carried list.
  const QueryBlockPtr root = Bind(kQueryQ);
  ASSERT_NE(root, nullptr);
  const QueryBlock& s = *root->children[0];
  EXPECT_EQ(s.carried,
            (std::vector<std::string>{"s.e", "s.g", "s.h", "s.i"}));
  const PlanVerifier verifier(catalog_);
  const PhysicalPlan plan = Plan(*root, NraOptions::Original());
  const VerifyReport report = verifier.Verify(*root, plan);
  EXPECT_TRUE(report.clean()) << report.ToString();
  bool found = false;
  for (const PlanStep& step : plan.steps) {
    if (step.child->id != 3) continue;
    found = true;
    EXPECT_EQ(step.mode, SelectionMode::kPseudo);
    EXPECT_EQ(step.pad_attrs, s.carried);
    EXPECT_EQ(std::find(step.pad_attrs.begin(), step.pad_attrs.end(), "s.f"),
              step.pad_attrs.end());
  }
  EXPECT_TRUE(found);
}

TEST_F(VerifyTest, CarriedSetDetectsDroppedColumns) {
  // Dropping a correlated column, the key, or a root output column from a
  // carried list, or listing a stranger, is a carried-set error.
  const char* sql =
      "select r.a from r where r.b in (select s.e from s where s.g = r.d)";
  const auto expect_error = [&](const std::function<void(QueryBlock*)>& mutate,
                                const std::string& needle) {
    const QueryBlockPtr root = Bind(sql);
    ASSERT_NE(root, nullptr);
    mutate(root.get());
    const VerifyReport report = PlanVerifier(catalog_).Verify(*root, Plan(*root));
    EXPECT_TRUE(report.HasRule(verify_rules::kCarriedSet))
        << needle << "\n" << report.ToString();
    EXPECT_NE(report.ToString().find(needle), std::string::npos)
        << report.ToString();
  };
  const auto drop = [](std::vector<std::string>* v, const std::string& c) {
    v->erase(std::remove(v->begin(), v->end(), c), v->end());
  };
  expect_error([&](QueryBlock* r) { drop(&r->children[0]->carried, "s.g"); },
               "correlated column 's.g'");
  expect_error([&](QueryBlock* r) { drop(&r->carried, "r.d"); },
               "correlated column 'r.d'");
  expect_error([&](QueryBlock* r) { drop(&r->carried, "r.b"); },
               "linking attribute 'r.b'");
  expect_error([&](QueryBlock* r) { drop(&r->children[0]->carried, "s.i"); },
               "key attribute 's.i'");
  expect_error([&](QueryBlock* r) { drop(&r->carried, "r.a"); },
               "root output column 'r.a'");
  expect_error([&](QueryBlock* r) { r->carried.push_back("s.e"); },
               "carried column 's.e'");
}

TEST_F(VerifyTest, TwoValuedAntijoinOutlinedAndGuarded) {
  // r.d (primary key) NOT IN s.e (NULL-free at load): the member comparison
  // is proven two-valued, so the default plan runs a plain antijoin.
  const QueryBlockPtr root = Bind(
      "select r.a from r where r.d not in (select s.e from s where s.g = r.d)");
  ASSERT_NE(root, nullptr);
  const PlanVerifier verifier(catalog_);
  const std::vector<PlanStep> steps = Plan(*root).steps;
  ASSERT_EQ(steps.size(), 1u);
  EXPECT_EQ(steps[0].kind, PlanStepKind::kAntijoin);
  EXPECT_EQ(steps[0].mode, SelectionMode::kStrict);
  {
    VerifyReport before;
    verifier.CheckOutline(steps, &before);
    EXPECT_TRUE(before.clean()) << before.ToString();
  }

  // Corrupt the plan: an antijoin step for a *positive* link is wrong in
  // every data set (it would keep non-matching rows only).
  root->children[0]->link_op = LinkOp::kIn;
  VerifyReport report;
  verifier.CheckOutline(steps, &report);
  EXPECT_FALSE(report.ok()) << report.ToString();
  EXPECT_TRUE(report.HasRule(verify_rules::kLinkMode)) << report.ToString();

  // With the fast path disabled the same query outlines as before this
  // optimization existed — no antijoin step anywhere.
  root->children[0]->link_op = LinkOp::kNotIn;
  NraOptions three_valued = NraOptions::Optimized();
  three_valued.two_valued = false;
  for (const PlanStep& s : Plan(*root, three_valued).steps) {
    EXPECT_NE(s.kind, PlanStepKind::kAntijoin);
  }
}

TEST_F(VerifyTest, ExecutorRejectsCorruptedPlanUpFront) {
  const QueryBlockPtr root =
      Bind("select r.a from r where r.b in (select s.e from s where s.g = r.d)");
  ASSERT_NE(root, nullptr);
  root->children[0]->linked_attr = "r.b";

  NraExecutor exec(catalog_, NraOptions::Optimized());
  const Result<Table> result = exec.Execute(*root);
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.status().ToString().find("plan verification failed"),
            std::string::npos)
      << result.status().ToString();
  EXPECT_NE(result.status().ToString().find("nest-sets"), std::string::npos)
      << result.status().ToString();

  // With verification disabled the corrupted plan reaches the executor and
  // fails (or succeeds wrongly) further down — the flag only gates the check.
  NraOptions unchecked = NraOptions::Optimized();
  unchecked.verify_plans = false;
  NraExecutor raw(catalog_, unchecked);
  const Result<Table> raw_result = raw.Execute(*root);
  if (!raw_result.ok()) {
    EXPECT_EQ(raw_result.status().ToString().find("plan verification"),
              std::string::npos)
        << raw_result.status().ToString();
  }
}

TEST_F(VerifyTest, ExecutorRejectsDroppedCarriedColumn) {
  // The carried sets are bound once and read by every executor stage; one
  // that lost a correlated column must stop the statement before a scan.
  const QueryBlockPtr root =
      Bind("select r.a from r where r.b in (select s.e from s where s.g = r.d)");
  ASSERT_NE(root, nullptr);
  std::vector<std::string>& carried = root->children[0]->carried;
  carried.erase(std::remove(carried.begin(), carried.end(), "s.g"),
                carried.end());

  NraExecutor exec(catalog_, NraOptions::Optimized());
  const Result<Table> result = exec.Execute(*root);
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.status().ToString().find("plan verification failed"),
            std::string::npos)
      << result.status().ToString();
  EXPECT_NE(result.status().ToString().find("carried-set"), std::string::npos)
      << result.status().ToString();
}

TEST_F(VerifyTest, ExplainReportsVerificationSection) {
  Result<std::string> text = ExplainSql(kQueryQ, catalog_, NraOptions::Optimized());
  ASSERT_TRUE(text.ok()) << text.status().ToString();
  EXPECT_NE(text->find("=== Plan verification ==="), std::string::npos) << *text;
  EXPECT_NE(text->find("clean (0 diagnostics)"), std::string::npos) << *text;
}

TEST(VerifyTpchTest, ExperimentQueriesClean) {
  Catalog catalog;
  TpchConfig config;
  config.scale = 0.01;
  ASSERT_OK(PopulateTpch(&catalog, config));

  const std::vector<std::string> corpus = {
      MakeQuery1("1993-01-01", "1997-01-01"),
      MakeQuery2(10, 40, 5000, 25, OuterLink::kAny, InnerLink::kNotExists),
      MakeQuery2(10, 40, 5000, 25, OuterLink::kAll, InnerLink::kNotExists),
      MakeQuery3(10, 40, 5000, 25, OuterLink::kAll, InnerLink::kExists,
                 Query3Variant::kVariantA),
      MakeQuery3(10, 40, 5000, 25, OuterLink::kAny, InnerLink::kNotExists,
                 Query3Variant::kVariantB),
  };
  for (const NraOptions& opts : AllOptionSets()) {
    const PlanVerifier verifier(catalog);
    for (const std::string& sql : corpus) {
      ASSERT_OK_AND_ASSIGN(const QueryBlockPtr root,
                           ParseAndBind(sql, catalog));
      const VerifyReport report =
          verifier.Verify(*root, BuildPhysicalPlan(*root, catalog, opts));
      EXPECT_TRUE(report.clean())
          << sql << "\n(" << opts.ToString() << ")\n" << report.ToString();
    }
  }
}

}  // namespace
}  // namespace nestra
