// Robustness fuzzing: the SQL front end must never crash or hang on
// arbitrary input — every outcome is either a parsed statement or a clean
// error Status. Random inputs come in three flavors: raw bytes, token soup
// from the SQL vocabulary, and mutations of valid queries.

#include <gtest/gtest.h>

#include <string>

#include "nra/physical_plan.h"
#include "plan/binder.h"
#include "sql/parser.h"
#include "storage/csv_io.h"
#include "tpch/random.h"
#include "verify/verifier.h"
#include "test_util.h"

namespace nestra {
namespace {

using testing_util::RegisterPaperRelations;

// Whatever the binder accepts, the static verifier must accept too: the
// binder is supposed to establish exactly the invariants the verifier
// re-derives, so a verifier error on a successfully-bound fuzz query means
// one of the two has drifted.
void ExpectVerifies(const QueryBlock& root, const Catalog& catalog,
                    const std::string& input) {
  for (const NraOptions& opts :
       {NraOptions::Original(), NraOptions::Optimized()}) {
    const PlanVerifier verifier(catalog);
    const VerifyReport report =
        verifier.Verify(root, BuildPhysicalPlan(root, catalog, opts));
    EXPECT_TRUE(report.ok())
        << input << "\n(" << opts.ToString() << ")\n" << report.ToString();
  }
}

class FuzzTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(FuzzTest, RawBytesNeverCrashTheParser) {
  Rng rng(GetParam());
  for (int i = 0; i < 200; ++i) {
    const int64_t len = rng.UniformInt(0, 120);
    std::string input;
    for (int64_t j = 0; j < len; ++j) {
      input += static_cast<char>(rng.UniformInt(32, 126));
    }
    const Result<AstSelectPtr> r = ParseSelect(input);
    if (r.ok()) {
      // Anything that parses must render and reparse.
      EXPECT_TRUE(ParseSelect((*r)->ToString()).ok()) << input;
    }
  }
}

TEST_P(FuzzTest, TokenSoupNeverCrashesParserOrBinder) {
  static const char* kVocab[] = {
      "select", "distinct", "from",  "where",  "and",   "or",    "not",
      "in",     "exists",   "all",   "any",    "some",  "is",    "null",
      "between", "group",   "by",    "having", "order", "asc",   "desc",
      "limit",  "count",    "max",   "min",    "sum",   "avg",   "(",
      ")",      ",",        ".",     "*",      "=",     "<>",    "<",
      "<=",     ">",        ">=",    "r",      "s",     "t",     "a",
      "b",      "c",        "d",     "e",      "g",     "h",     "i",
      "j",      "k",        "l",     "1",      "42",    "3.5",   "'x'",
  };
  Catalog catalog;
  RegisterPaperRelations(&catalog);

  Rng rng(GetParam() + 1000);
  for (int i = 0; i < 300; ++i) {
    std::string input = "select";
    const int64_t len = rng.UniformInt(1, 30);
    for (int64_t j = 0; j < len; ++j) {
      input += " ";
      input += kVocab[rng.UniformInt(0, std::size(kVocab) - 1)];
    }
    const Result<QueryBlockPtr> bound = ParseAndBind(input, catalog);
    if (bound.ok()) ExpectVerifies(**bound, catalog, input);
  }
}

TEST_P(FuzzTest, MutatedValidQueriesNeverCrash) {
  Catalog catalog;
  RegisterPaperRelations(&catalog);
  const std::string base = testing_util::kQueryQ;

  Rng rng(GetParam() + 2000);
  for (int i = 0; i < 200; ++i) {
    std::string mutated = base;
    const int64_t edits = rng.UniformInt(1, 5);
    for (int64_t e = 0; e < edits; ++e) {
      const size_t pos =
          static_cast<size_t>(rng.UniformInt(0, static_cast<int64_t>(
                                                    mutated.size() - 1)));
      switch (rng.UniformInt(0, 2)) {
        case 0:  // flip a character
          mutated[pos] = static_cast<char>(rng.UniformInt(32, 126));
          break;
        case 1:  // delete a character
          mutated.erase(pos, 1);
          break;
        default:  // duplicate a slice
          mutated.insert(pos, mutated.substr(
                                  pos, static_cast<size_t>(
                                           rng.UniformInt(1, 8))));
          break;
      }
      if (mutated.empty()) mutated = "select";
    }
    const Result<QueryBlockPtr> bound = ParseAndBind(mutated, catalog);
    if (bound.ok()) ExpectVerifies(**bound, catalog, mutated);
  }
}

TEST_P(FuzzTest, CsvReaderNeverCrashes) {
  const Schema schema({{"a", TypeId::kInt64},
                       {"b", TypeId::kString},
                       {"c", TypeId::kFloat64},
                       {"d", TypeId::kDate}});
  Rng rng(GetParam() + 3000);
  for (int i = 0; i < 200; ++i) {
    std::string input = rng.Bernoulli(0.5) ? "a,b,c,d\n" : "";
    const int64_t len = rng.UniformInt(0, 200);
    for (int64_t j = 0; j < len; ++j) {
      static const char kChars[] = "abc123,\"\n\r'.-";
      input += kChars[rng.UniformInt(0, sizeof(kChars) - 2)];
    }
    const Result<Table> r = ReadCsv(input, schema);
    (void)r;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzTest, ::testing::Range<uint64_t>(0, 8));

}  // namespace
}  // namespace nestra
