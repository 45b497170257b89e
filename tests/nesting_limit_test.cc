// Hostile nesting ends in a clean ParseError, never in a crash: the
// recursive-descent parser bounds parentheses, NOT chains, unary minus,
// arithmetic operator chains and nested SELECTs at kMaxNestingDepth levels
// (sql/parser.h). Inputs far past the limit (200,000 levels) fail without
// recursing past it, so these tests cannot exhaust their own stack; inputs
// exactly at the limit parse and run through the whole engine, and give
// the answer of the same query without the nesting (or, for a chain of
// correlated subqueries, the nested-iteration oracle's answer).

#include <gtest/gtest.h>

#include <string>

#include "baseline/nested_iteration.h"
#include "nra/executor.h"
#include "nra/explain.h"
#include "nra/physical_plan.h"
#include "plan/binder.h"
#include "sql/parser.h"
#include "test_util.h"
#include "verify/verifier.h"

namespace nestra {
namespace {

using testing_util::RegisterPaperRelations;

constexpr int kHostile = 200000;

std::string Repeat(const std::string& s, int n) {
  std::string out;
  out.reserve(s.size() * static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) out += s;
  return out;
}

// `select d from r where ` + `(`^n + cond + `)`^n: the SELECT is one level,
// each parenthesis one more.
std::string Parens(int n, const std::string& cond = "a = 1") {
  return "select d from r where " + Repeat("(", n) + cond + Repeat(")", n);
}

std::string Nots(int n) {
  return "select d from r where " + Repeat("not ", n) + "a = 1";
}

// `a + 0 + 0 ...`: each operator nests the chain one level deeper.
std::string PlusChain(int n) {
  return "select d from r where a" + Repeat(" + 0", n) + " = 1";
}

std::string Minuses(int n) {
  return "select d from r where a = " + Repeat("- ", n) + "1";
}

// n nested SELECTs: the outer one plus n - 1 EXISTS subqueries.
std::string NestedSelects(int n) {
  std::string sql = "select d from r where a = 1";
  for (int i = 1; i < n; ++i) sql += " and exists (select i from s where e = 1";
  return sql + Repeat(")", n - 1);
}

// A linear, correlated chain of `links` subqueries over s, each introduced
// by `link` (EXISTS or NOT EXISTS): level k scans `s s<k>` and correlates to
// level k - 1 on the key, and the innermost level also filters on s.h, so
// the answer depends on every level. One SELECT per level, `links` + 1 in
// all.
std::string CorrelatedChain(int links, const std::string& link) {
  std::string sql = "select s0.e from s s0 where ";
  for (int k = 1; k <= links; ++k) {
    const std::string cur = "s" + std::to_string(k);
    const std::string prev = "s" + std::to_string(k - 1);
    sql += link + " (select " + cur + ".e from s " + cur + " where " + cur +
           ".i = " + prev + ".i and ";
  }
  return sql + "s" + std::to_string(links) + ".h > 2" + Repeat(")", links);
}

void ExpectTooDeep(const std::string& sql, const std::string& what) {
  const Result<AstSelectPtr> single = ParseSelect(sql);
  ASSERT_FALSE(single.ok()) << what;
  EXPECT_EQ(single.status().code(), StatusCode::kParseError) << what;
  EXPECT_NE(single.status().ToString().find("nested deeper than"),
            std::string::npos)
      << what << ": " << single.status().ToString();
  const Result<AstStatementPtr> compound = ParseStatement(sql);
  ASSERT_FALSE(compound.ok()) << what;
  EXPECT_EQ(compound.status().code(), StatusCode::kParseError) << what;
}

TEST(NestingLimitTest, HostileNestingFailsCleanly) {
  ExpectTooDeep(Parens(kHostile), "200,000 parentheses");
  ExpectTooDeep(Parens(kHostile, "a + 1 > 2"), "200,000 scalar parentheses");
  ExpectTooDeep(Nots(kHostile), "200,000 NOTs");
  ExpectTooDeep(PlusChain(kHostile), "200,000 + operators");
  ExpectTooDeep(Minuses(kHostile), "200,000 unary minuses");
  ExpectTooDeep(NestedSelects(20000), "20,000 nested SELECTs");
}

TEST(NestingLimitTest, OnePastTheLimitFails) {
  ExpectTooDeep(Parens(kMaxNestingDepth), "parentheses");
  ExpectTooDeep(Nots(kMaxNestingDepth), "NOTs");
  ExpectTooDeep(PlusChain(kMaxNestingDepth), "+ chain");
  ExpectTooDeep(NestedSelects(kMaxNestingDepth + 1), "nested SELECTs");
}

class NestingLimitRunTest : public ::testing::Test {
 protected:
  void SetUp() override { RegisterPaperRelations(&catalog_); }

  // Runs `sql` and `flat` and expects the same bag of rows.
  void ExpectSameAnswer(const std::string& sql, const std::string& flat,
                        const std::string& what) {
    NraExecutor exec(catalog_, NraOptions::Optimized());
    Result<Table> got = exec.ExecuteSql(sql);
    ASSERT_TRUE(got.ok()) << what << ": " << got.status().ToString();
    Result<Table> want = exec.ExecuteSql(flat);
    ASSERT_TRUE(want.ok()) << what << ": " << want.status().ToString();
    EXPECT_TRUE(Table::BagEquals(*want, *got))
        << what << "\nwant:\n"
        << want->ToString() << "\ngot:\n"
        << got->ToString();
  }

  Catalog catalog_;
};

TEST_F(NestingLimitRunTest, AtTheLimitParsesAndRuns) {
  const int n = kMaxNestingDepth - 1;  // plus the SELECT: the limit
  ExpectSameAnswer(Parens(n), "select d from r where a = 1", "parentheses");
  ExpectSameAnswer(Nots(n),
                   n % 2 == 0 ? "select d from r where a = 1"
                              : "select d from r where not a = 1",
                   "NOTs");
  ExpectSameAnswer(PlusChain(n), "select d from r where a = 1", "+ chain");
  ExpectSameAnswer(Minuses(n),
                   n % 2 == 0 ? "select d from r where a = 1"
                              : "select d from r where a = -1",
                   "unary minuses");
  // The deepest nested SELECT chain parses; CorrelatedChainsAtTheLimitRun
  // runs one through the engine.
  const Result<AstSelectPtr> deep = ParseSelect(NestedSelects(kMaxNestingDepth));
  EXPECT_TRUE(deep.ok()) << deep.status().ToString();
}

// kMaxNestingDepth SELECTs, 255 correlated links: each chain binds, builds
// its plan, verifies clean, explains, and returns the nested-iteration
// oracle's bag on the fused chain and the recursive route at 1 and 2
// threads.
TEST_F(NestingLimitRunTest, CorrelatedChainsAtTheLimitRun) {
  const int links = kMaxNestingDepth - 1;
  for (const char* link : {"exists", "not exists"}) {
    const std::string sql = CorrelatedChain(links, link);
    ASSERT_OK_AND_ASSIGN(const QueryBlockPtr root,
                         ParseAndBind(sql, catalog_));
    ASSERT_EQ(root->NumBlocks(), kMaxNestingDepth) << link;
    EXPECT_TRUE(root->IsLinearCorrelated()) << link;
    ASSERT_OK_AND_ASSIGN(const Table want,
                         NestedIterationExecutor(catalog_).Execute(*root));
    // h > 2 holds for two of s's four rows; the NOT EXISTS chain negates an
    // even number of times above the innermost level, so it keeps the other
    // two.
    EXPECT_EQ(want.num_rows(), 2) << link;
    for (NraOptions opts : {NraOptions::Optimized(), NraOptions::Original()}) {
      for (const int threads : {1, 2}) {
        opts.num_threads = threads;
        const std::string what = std::string(link) + " " + opts.ToString();
        const PhysicalPlan plan = BuildPhysicalPlan(*root, catalog_, opts);
        EXPECT_EQ(plan.route, opts.fused ? PlanRoute::kFusedChain
                                         : PlanRoute::kRecursive)
            << what;
        EXPECT_EQ(plan.steps.size(), static_cast<size_t>(links)) << what;
        const VerifyReport report = PlanVerifier(catalog_).Verify(*root, plan);
        EXPECT_TRUE(report.clean()) << what << "\n" << report.ToString();
        const std::string explain = ExplainQuery(*root, catalog_, opts);
        EXPECT_NE(explain.find("clean (0 diagnostics)"), std::string::npos)
            << what;
        NraExecutor exec(catalog_, opts);
        Result<Table> got = exec.Execute(*root);
        ASSERT_TRUE(got.ok()) << what << ": " << got.status().ToString();
        EXPECT_TRUE(Table::BagEquals(want, *got))
            << what << "\nwant:\n"
            << want.ToString() << "\ngot:\n"
            << got->ToString();
      }
    }
  }
}

}  // namespace
}  // namespace nestra
