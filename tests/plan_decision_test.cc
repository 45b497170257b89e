// The physical plan against the run: BuildPhysicalPlan decides every step
// once, and EXPLAIN and the verifier read that same object, so what is left
// to disagree is the executor. For each corpus query and option set, every
// semijoin or antijoin step must run join-only, every nest-bearing step must
// run a nest or selection stage, and the route, the magic restriction and
// the fused pass must be the ones the plan names.

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "nra/executor.h"
#include "nra/explain.h"
#include "nra/physical_plan.h"
#include "nra/profile.h"
#include "plan/binder.h"
#include "test_util.h"

namespace nestra {
namespace {

using testing_util::RegisterPaperRelations;
using testing_util::kQueryQ;

// The exact phrase EXPLAIN prints for an antijoin step — nothing else in
// EXPLAIN output contains it.
constexpr const char* kAntijoinPhrase =
    "two-valued antijoin (proven non-NULL member comparison)";

int CountOccurrences(const std::string& text, const std::string& needle) {
  int count = 0;
  for (size_t pos = text.find(needle); pos != std::string::npos;
       pos = text.find(needle, pos + needle.size())) {
    ++count;
  }
  return count;
}

bool HasStage(const QueryProfile& profile, const std::string& label) {
  for (const ProfiledStage& s : profile.stages()) {
    if (s.label == label) return true;
  }
  return false;
}

// True when block `id` ran through ANY nest/selection machinery — i.e. it
// did NOT take a join-only fast path (semijoin or antijoin).
bool RanNestSelect(const QueryProfile& profile, int id) {
  const std::string bid = std::to_string(id);
  return HasStage(profile, "nest[b" + bid + "]") ||
         HasStage(profile, "select[b" + bid + "]") ||
         HasStage(profile, "link-select[b" + bid + "]") ||
         HasStage(profile, "fused[b" + bid + "]") ||
         // The whole-chain single-sort pipeline evaluates every level in
         // one unlabeled-by-block stage.
         HasStage(profile, "fused nest+select");
}

std::vector<std::pair<std::string, NraOptions>> DecisionOptionSets() {
  std::vector<std::pair<std::string, NraOptions>> sets;
  sets.emplace_back("optimized", NraOptions::Optimized());
  sets.emplace_back("original", NraOptions::Original());
  {
    NraOptions o = NraOptions::Optimized();
    o.two_valued = false;
    sets.emplace_back("three-valued", o);
  }
  {
    NraOptions o = NraOptions::Optimized();
    o.rewrite_positive = true;
    sets.emplace_back("semijoin-rewrite", o);
  }
  {
    NraOptions o = NraOptions::Optimized();
    o.push_down_nest = true;
    sets.emplace_back("push-down", o);
  }
  {
    NraOptions o = NraOptions::Optimized();
    o.bottom_up_linear = true;
    sets.emplace_back("bottom-up", o);
  }
  {
    NraOptions o = NraOptions::Optimized();
    o.magic_restriction = true;
    sets.emplace_back("magic", o);
  }
  return sets;
}

class PlanDecisionTest : public ::testing::Test {
 protected:
  void SetUp() override { RegisterPaperRelations(&catalog_); }

  // Executes `sql` with profiling and checks every step of its plan
  // against the stages that ran.
  void CheckPlanMatchesRun(const std::string& sql, const std::string& set_name,
                           const NraOptions& options) {
    const std::string context = set_name + "\n" + sql;
    Result<QueryBlockPtr> bound = ParseAndBind(sql, catalog_);
    ASSERT_TRUE(bound.ok()) << context << "\n" << bound.status().ToString();
    const QueryBlockPtr root = std::move(bound).ValueOrDie();
    const PhysicalPlan plan = BuildPhysicalPlan(*root, catalog_, options);

    NraOptions exec_opts = options;
    exec_opts.profile = true;
    NraExecutor exec(catalog_, exec_opts);
    QueryProfile profile;
    Result<Table> result = exec.Execute(*root, nullptr, &profile);
    ASSERT_TRUE(result.ok()) << context << ": " << result.status().ToString();

    EXPECT_EQ(HasStage(profile, "fused nest+select"),
              plan.route == PlanRoute::kFusedChain)
        << context << ": the single-sort fused pass ran against the plan";
    for (const PlanStep& s : plan.steps) {
      const int id = s.child->id;
      const std::string bid = "[b" + std::to_string(id) + "]";
      if (s.kind == PlanStepKind::kAntijoin ||
          s.kind == PlanStepKind::kSemijoin) {
        EXPECT_TRUE(HasStage(profile, "join" + bid))
            << context << ": the plan promised a join-only fast path for "
            << "block " << id << " but no join" << bid << " stage ran";
        EXPECT_FALSE(RanNestSelect(profile, id))
            << context << ": the plan promised a join-only fast path for "
            << "block " << id
            << " but the executed plan ran nest/selection stages";
        continue;
      }
      EXPECT_TRUE(RanNestSelect(profile, id))
          << context << ": the plan's step for block " << id
          << " requires a nest/selection, but none ran";
      if (s.kind != PlanStepKind::kNestSelect) continue;
      EXPECT_EQ(HasStage(profile, "magic" + bid), s.magic)
          << context << ": magic restriction of block " << id;
      if (!s.streaming) {
        EXPECT_EQ(HasStage(profile, "fused" + bid), s.fused)
            << context << ": fused nest+select of block " << id;
      }
    }
  }

  Catalog catalog_;
};

// r.d is r's primary key and s.e is NULL-free at load: the member
// comparison is proven two-valued, so the default plan antijoins.
constexpr const char* kProvenNotIn =
    "select r.a from r where r.d not in "
    "(select s.e from s where s.g = r.d)";

// r.b is nullable: the proof fails, the decision must be NO everywhere.
constexpr const char* kUnprovenNotIn =
    "select r.a from r where r.b not in "
    "(select s.e from s where s.g = r.d)";

// Positive link: antijoin can never apply (semijoin territory).
constexpr const char* kPositiveIn =
    "select r.a from r where r.d in "
    "(select s.e from s where s.g = r.d)";

// NOT EXISTS has no member comparison to prove anything about.
constexpr const char* kNotExists =
    "select r.a from r where not exists "
    "(select s.e from s where s.g = r.d)";

TEST_F(PlanDecisionTest, PlanMatchesTheRunOnEveryCorpusQuery) {
  const std::vector<const char*> corpus = {kProvenNotIn, kUnprovenNotIn,
                                           kPositiveIn, kNotExists, kQueryQ};
  for (const auto& [set_name, options] : DecisionOptionSets()) {
    for (const char* sql : corpus) {
      CheckPlanMatchesRun(sql, set_name, options);
    }
  }
}

TEST_F(PlanDecisionTest, ProvenNotInTakesAntijoinByDefault) {
  Result<QueryBlockPtr> bound = ParseAndBind(kProvenNotIn, catalog_);
  ASSERT_TRUE(bound.ok()) << bound.status().ToString();
  const QueryBlockPtr root = std::move(bound).ValueOrDie();

  const NraOptions options = NraOptions::Optimized();
  EXPECT_EQ(CountOccurrences(ExplainQuery(*root, catalog_, options),
                             kAntijoinPhrase),
            1);
  const std::vector<PlanStep> steps =
      BuildPhysicalPlan(*root, catalog_, options).steps;
  ASSERT_EQ(steps.size(), 1u);
  EXPECT_EQ(steps[0].kind, PlanStepKind::kAntijoin);
}

TEST_F(PlanDecisionTest, DisablingTwoValuedDisablesAllThreeLayers) {
  Result<QueryBlockPtr> bound = ParseAndBind(kProvenNotIn, catalog_);
  ASSERT_TRUE(bound.ok()) << bound.status().ToString();
  const QueryBlockPtr root = std::move(bound).ValueOrDie();

  NraOptions options = NraOptions::Optimized();
  options.two_valued = false;
  EXPECT_EQ(CountOccurrences(ExplainQuery(*root, catalog_, options),
                             kAntijoinPhrase),
            0);
  for (const PlanStep& s : BuildPhysicalPlan(*root, catalog_, options).steps) {
    EXPECT_NE(s.kind, PlanStepKind::kAntijoin);
  }

  options.profile = true;
  NraExecutor exec(catalog_, options);
  QueryProfile profile;
  ASSERT_OK(exec.ExecuteSql(kProvenNotIn, nullptr, &profile).status());
  EXPECT_TRUE(RanNestSelect(profile, root->children[0]->id));
}

}  // namespace
}  // namespace nestra
