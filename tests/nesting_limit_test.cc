// Hostile nesting ends in a clean ParseError, never in a crash: the
// recursive-descent parser bounds parentheses, NOT chains, unary minus,
// arithmetic operator chains and nested SELECTs at kMaxNestingDepth levels
// (sql/parser.h). Inputs far past the limit (200,000 levels) fail without
// recursing past it, so these tests cannot exhaust their own stack; inputs
// exactly at the limit parse and run through the whole engine, and give
// the answer of the same query without the nesting.

#include <gtest/gtest.h>

#include <string>

#include "nra/executor.h"
#include "sql/parser.h"
#include "test_util.h"

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
  // The deepest nested SELECT chain parses; running 256 nesting levels is
  // left to the engine's own depth tests.
  const Result<AstSelectPtr> deep = ParseSelect(NestedSelects(kMaxNestingDepth));
  EXPECT_TRUE(deep.ok()) << deep.status().ToString();
}

}  // namespace
}  // namespace nestra
