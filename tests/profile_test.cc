// Properties of the query-profiling subsystem (EXPLAIN ANALYZE):
//
//  * the stage list — (label, phase, rows_out) — is a deterministic
//    function of the query and options, identical across num_threads
//    1/2/8; only timings vary (DESIGN.md §7);
//  * profile.output_rows equals the returned table's cardinality, which
//    equals the serial nested-iteration oracle's;
//  * with profiling off the sink is never touched, so callers can reuse
//    one QueryProfile across profiled and unprofiled runs;
//  * with an IoSim installed, the profile's I/O totals equal the
//    simulator's counter deltas and scans attribute their own accesses.

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "baseline/nested_iteration.h"
#include "common/date.h"
#include "nra/executor.h"
#include "nra/profile.h"
#include "query_generator.h"
#include "storage/io_sim.h"
#include "tpch/queries.h"
#include "tpch/tpch_gen.h"
#include "test_util.h"

namespace nestra {
namespace {

using testing_util::QueryGenerator;

constexpr int kThreadDegrees[] = {1, 2, 8};

struct StageKey {
  std::string label;
  QueryPhase phase;
  int64_t rows_out;
};

std::vector<StageKey> Keys(const QueryProfile& profile) {
  std::vector<StageKey> keys;
  for (const ProfiledStage& stage : profile.stages()) {
    keys.push_back({stage.label, stage.phase, stage.rows_out});
  }
  return keys;
}

std::string Describe(const std::vector<StageKey>& keys) {
  std::string out;
  for (const StageKey& k : keys) {
    out += k.label + " (" + QueryPhaseLabel(k.phase) +
           ", rows_out=" + std::to_string(k.rows_out) + ")\n";
  }
  return out;
}

// Runs `sql` profiled at every thread degree under `base` options and
// checks the stage list and output cardinality never change.
void CheckProfileThreadInvariant(const Catalog& catalog,
                                 const std::string& sql,
                                 const NraOptions& base,
                                 const std::string& name) {
  std::vector<StageKey> ref;
  int64_t ref_rows = -1;
  for (const int threads : kThreadDegrees) {
    NraOptions opts = base;
    opts.num_threads = threads;
    opts.profile = true;
    NraExecutor exec(catalog, opts);
    QueryProfile profile;
    Result<Table> r = exec.ExecuteSql(sql, nullptr, &profile);
    ASSERT_TRUE(r.ok()) << name << "/threads=" << threads << ": "
                        << r.status().ToString();
    EXPECT_EQ(profile.output_rows, r->num_rows())
        << name << "/threads=" << threads;
    EXPECT_FALSE(profile.stages().empty()) << name;
    const std::vector<StageKey> keys = Keys(profile);
    if (threads == 1) {
      ref = keys;
      ref_rows = r->num_rows();
      continue;
    }
    EXPECT_EQ(r->num_rows(), ref_rows) << name << "/threads=" << threads;
    ASSERT_EQ(keys.size(), ref.size())
        << name << "/threads=" << threads << "\nserial stages:\n"
        << Describe(ref) << "parallel stages:\n"
        << Describe(keys);
    for (size_t i = 0; i < keys.size(); ++i) {
      EXPECT_EQ(keys[i].label, ref[i].label)
          << name << "/threads=" << threads << " stage " << i;
      EXPECT_EQ(keys[i].phase, ref[i].phase)
          << name << "/threads=" << threads << " stage " << i;
      EXPECT_EQ(keys[i].rows_out, ref[i].rows_out)
          << name << "/threads=" << threads << " stage " << i << " ("
          << keys[i].label << ")";
    }
  }
}

std::vector<std::pair<std::string, NraOptions>> OptionVariants() {
  std::vector<std::pair<std::string, NraOptions>> configs;
  configs.emplace_back("optimized", NraOptions::Optimized());
  configs.emplace_back("original", NraOptions::Original());
  {
    NraOptions o = NraOptions::Optimized();
    o.push_down_nest = true;
    o.rewrite_positive = true;
    o.bottom_up_linear = true;
    configs.emplace_back("all-rewrites", o);
  }
  return configs;
}

// ---------- The paper's experiment queries on TPC-H data ----------

class ProfileTpchTest : public ::testing::Test {
 protected:
  void SetUp() override {
    TpchConfig config;
    config.scale = 0.04;
    config.declare_not_null = true;
    ASSERT_OK(PopulateTpch(&catalog_, config));
  }

  std::string Query1Sql() {
    const Table* orders = *catalog_.GetTable("orders");
    const Value lo = *ColumnQuantile(*orders, "o_orderdate", 0.2);
    const Value hi = *ColumnQuantile(*orders, "o_orderdate", 0.8);
    return MakeQuery1(FormatDate(lo.int64()), FormatDate(hi.int64()));
  }

  Catalog catalog_;
};

TEST_F(ProfileTpchTest, Query1StagesAreThreadInvariant) {
  const std::string sql = Query1Sql();
  for (const auto& [name, opts] : OptionVariants()) {
    CheckProfileThreadInvariant(catalog_, sql, opts, name);
  }
}

TEST_F(ProfileTpchTest, Query2StagesAreThreadInvariant) {
  const std::string sql =
      MakeQuery2(10, 40, 5000, 25, OuterLink::kAny, InnerLink::kNotExists);
  for (const auto& [name, opts] : OptionVariants()) {
    CheckProfileThreadInvariant(catalog_, sql, opts, name);
  }
}

TEST_F(ProfileTpchTest, Query3StagesAreThreadInvariant) {
  const std::string sql = MakeQuery3(10, 40, 5000, 25, OuterLink::kAll,
                                     InnerLink::kExists,
                                     Query3Variant::kVariantA);
  for (const auto& [name, opts] : OptionVariants()) {
    CheckProfileThreadInvariant(catalog_, sql, opts, name);
  }
}

TEST_F(ProfileTpchTest, ProfiledRowsMatchOracle) {
  const std::string sql = Query1Sql();
  NestedIterationExecutor oracle(catalog_, {.use_indexes = false});
  ASSERT_OK_AND_ASSIGN(Table expected, oracle.ExecuteSql(sql));
  for (const int threads : kThreadDegrees) {
    NraOptions opts = NraOptions::Optimized();
    opts.num_threads = threads;
    opts.profile = true;
    NraExecutor exec(catalog_, opts);
    QueryProfile profile;
    ASSERT_OK_AND_ASSIGN(Table actual, exec.ExecuteSql(sql, nullptr, &profile));
    EXPECT_TRUE(Table::BagEquals(expected, actual)) << "threads=" << threads;
    EXPECT_EQ(profile.output_rows, expected.num_rows())
        << "threads=" << threads;
  }
}

TEST_F(ProfileTpchTest, PhaseSplitCoversNestAndLinkingSelection) {
  NraOptions opts = NraOptions::Optimized();
  opts.num_threads = 1;
  opts.profile = true;
  // This test asserts the 3VL fused pipeline's phase attribution. The fixture
  // declares NOT NULL columns and TPC-H data is NULL-free, so with the
  // default two_valued=true Query 1's `> all` link would instead run as a
  // proven-2VL antijoin with no nest phase at all.
  opts.two_valued = false;
  NraExecutor exec(catalog_, opts);
  QueryProfile profile;
  ASSERT_OK_AND_ASSIGN(Table result,
                       exec.ExecuteSql(Query1Sql(), nullptr, &profile));
  (void)result;
  // Query 1 is a correlated subquery: unnest-join rows flow into the fused
  // nest + linking-selection pass, and the final projection is
  // post-processing. Every phase must have either rows or time attributed.
  EXPECT_GT(profile.PhaseRows(QueryPhase::kUnnestJoin), 0);
  EXPECT_GT(profile.PhaseSeconds(QueryPhase::kNest), 0.0);
  EXPECT_GT(profile.PhaseRows(QueryPhase::kLinkingSelection), 0);
  EXPECT_GT(profile.PhaseRows(QueryPhase::kPostProcessing), 0);
  EXPECT_GT(profile.total_seconds, 0.0);
  // The rendered report mentions every phase label.
  const std::string text = profile.ToString();
  for (const char* label :
       {"unnest-join", "nest", "linking-selection", "post-processing"}) {
    EXPECT_NE(text.find(label), std::string::npos) << text;
  }
  // The JSON document round-trips the same top-line numbers.
  const std::string json = profile.ToJson();
  EXPECT_NE(json.find("\"schema\":\"nestra-query-profile-v1\""),
            std::string::npos);
  EXPECT_NE(json.find("\"output_rows\":" +
                      std::to_string(profile.output_rows)),
            std::string::npos);
}

TEST_F(ProfileTpchTest, PhaseSecondsCoverStageSeconds) {
  // At one thread stages run one after another, so the phase split (self
  // time of every operator, plus the time of tree-less stages) must account
  // for the stages' wall time — fused stages whose hand-built operator
  // snapshot has no timer of its own (ScanFilter) included.
  for (const bool two_valued : {false, true}) {
    NraOptions opts = NraOptions::Optimized();
    opts.num_threads = 1;
    opts.profile = true;
    opts.two_valued = two_valued;
    NraExecutor exec(catalog_, opts);
    QueryProfile profile;
    ASSERT_OK_AND_ASSIGN(Table result,
                         exec.ExecuteSql(Query1Sql(), nullptr, &profile));
    (void)result;
    double stage_seconds = 0;
    for (const ProfiledStage& stage : profile.stages()) {
      stage_seconds += stage.seconds;
    }
    double phase_seconds = 0;
    for (const QueryPhase phase :
         {QueryPhase::kUnnestJoin, QueryPhase::kNest,
          QueryPhase::kLinkingSelection, QueryPhase::kPostProcessing,
          QueryPhase::kUnattributed}) {
      phase_seconds += profile.PhaseSeconds(phase);
    }
    ASSERT_GT(stage_seconds, 0.0);
    EXPECT_NEAR(phase_seconds, stage_seconds, 0.05 * stage_seconds)
        << "two_valued=" << two_valued << "\n"
        << profile.ToString();
  }
}

TEST_F(ProfileTpchTest, ThreadPoolUsageIsAttributed) {
  NraOptions opts = NraOptions::Optimized();
  opts.num_threads = 8;
  opts.profile = true;
  NraExecutor exec(catalog_, opts);
  QueryProfile profile;
  ASSERT_OK_AND_ASSIGN(Table result,
                       exec.ExecuteSql(Query1Sql(), nullptr, &profile));
  (void)result;
  // At scale 0.04 lineitem exceeds one morsel, so at least one stage fans
  // out to the shared pool.
  EXPECT_GT(profile.pool.parallel_loops, 0);
  EXPECT_GT(profile.pool.tasks_submitted, 0);
  int64_t stage_loops = 0;
  for (const ProfiledStage& stage : profile.stages()) {
    stage_loops += stage.pool.parallel_loops;
  }
  EXPECT_GT(stage_loops, 0);
  EXPECT_LE(stage_loops, profile.pool.parallel_loops);
}

// ---------- Profiling off / sink handling ----------

TEST_F(ProfileTpchTest, ProfileOffLeavesSinkUntouched) {
  NraOptions opts = NraOptions::Optimized();
  opts.profile = false;  // flag off, sink passed
  NraExecutor exec(catalog_, opts);
  QueryProfile profile;
  profile.output_rows = 42;  // sentinel
  ASSERT_OK_AND_ASSIGN(Table result,
                       exec.ExecuteSql(Query1Sql(), nullptr, &profile));
  (void)result;
  EXPECT_EQ(profile.output_rows, 42);
  EXPECT_TRUE(profile.stages().empty());
}

TEST_F(ProfileTpchTest, ProfileFlagWithoutSinkIsHarmless) {
  NraOptions opts = NraOptions::Optimized();
  opts.profile = true;  // flag on, no sink
  NraExecutor exec(catalog_, opts);
  ASSERT_OK_AND_ASSIGN(Table result, exec.ExecuteSql(Query1Sql()));
  EXPECT_GT(result.num_rows(), 0);
}

// ---------- IoSim attribution ----------

TEST_F(ProfileTpchTest, IoSimTotalsMatchSimulator) {
  IoSim sim;
  for (const std::string& name : catalog_.TableNames()) {
    sim.RegisterTable(*catalog_.GetTable(name));
  }
  IoSim::Install(&sim);
  for (const int threads : kThreadDegrees) {
    sim.Reset();
    NraOptions opts = NraOptions::Optimized();
    opts.num_threads = threads;
    opts.profile = true;
    NraExecutor exec(catalog_, opts);
    QueryProfile profile;
    const Result<Table> r = exec.ExecuteSql(Query1Sql(), nullptr, &profile);
    if (!r.ok()) {
      IoSim::Install(nullptr);
      FAIL() << r.status().ToString();
    }
    EXPECT_GT(profile.io_hits + profile.io_seq_misses +
                  profile.io_random_misses,
              0)
        << "threads=" << threads;
    EXPECT_EQ(profile.io_hits, sim.hits()) << "threads=" << threads;
    EXPECT_EQ(profile.io_seq_misses, sim.seq_misses())
        << "threads=" << threads;
    EXPECT_EQ(profile.io_random_misses, sim.random_misses())
        << "threads=" << threads;
    EXPECT_DOUBLE_EQ(profile.sim_io_millis, sim.SimMillis())
        << "threads=" << threads;
    // The base-table scans attribute their own accesses inside the stage
    // trees; summed, they equal the query totals (only scans touch the
    // simulator in this plan shape).
    int64_t tree_io = 0;
    for (const ProfiledStage& stage : profile.stages()) {
      if (!stage.has_tree) continue;
      std::vector<const ProfiledOperator*> work{&stage.tree};
      while (!work.empty()) {
        const ProfiledOperator* op = work.back();
        work.pop_back();
        tree_io += op->stats.io_hits + op->stats.io_seq_misses +
                   op->stats.io_random_misses;
        for (const ProfiledOperator& child : op->children) {
          work.push_back(&child);
        }
      }
    }
    EXPECT_EQ(tree_io, profile.io_hits + profile.io_seq_misses +
                           profile.io_random_misses)
        << "threads=" << threads;
  }
  IoSim::Install(nullptr);
}

// ---------- Fuzzed query corpus ----------

class ProfileFuzzTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ProfileFuzzTest, StageListsAreThreadInvariant) {
  QueryGenerator gen(GetParam());
  Catalog catalog;
  gen.PopulateTables(&catalog);

  for (int i = 0; i < 8; ++i) {
    const std::string sql = gen.RandomQuery();
    SCOPED_TRACE(sql);
    for (const auto& [name, opts] : OptionVariants()) {
      CheckProfileThreadInvariant(catalog, sql, opts, name);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ProfileFuzzTest,
                         ::testing::Range<uint64_t>(0, 5));

}  // namespace
}  // namespace nestra
